package loloha

import (
	"math"
	"testing"
)

func TestFacadeConstructors(t *testing.T) {
	if _, err := New(100, 4, 2, 1); err != nil {
		t.Error(err)
	}
	bi, err := NewBiLOLOHA(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bi.G() != 2 {
		t.Errorf("BiLOLOHA g = %d", bi.G())
	}
	ol, err := NewOLOLOHA(100, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ol.G() != OptimalG(5, 3) {
		t.Errorf("OLOLOHA g = %d, want %d", ol.G(), OptimalG(5, 3))
	}
	for name, mk := range map[string]func() (Protocol, error){
		"RAPPOR":     func() (Protocol, error) { return NewRAPPOR(50, 2, 1) },
		"L-OSUE":     func() (Protocol, error) { return NewLOSUE(50, 2, 1) },
		"L-OUE":      func() (Protocol, error) { return NewLOUE(50, 2, 1) },
		"L-SOUE":     func() (Protocol, error) { return NewLSOUE(50, 2, 1) },
		"L-GRR":      func() (Protocol, error) { return NewLGRR(50, 2, 1) },
		"dBitFlipPM": func() (Protocol, error) { return NewDBitFlipPM(50, 10, 3, 2) },
	} {
		if _, err := mk(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, mk := range map[string]error{
		"GRR": errOf(func() error { _, e := NewGRR(10, 1); return e }),
		"BLH": errOf(func() error { _, e := NewBLH(10, 1); return e }),
		"OLH": errOf(func() error { _, e := NewOLH(10, 1); return e }),
		"SUE": errOf(func() error { _, e := NewSUE(10, 1); return e }),
		"OUE": errOf(func() error { _, e := NewOUE(10, 1); return e }),
	} {
		if mk != nil {
			t.Errorf("%s: %v", name, mk)
		}
	}
}

func errOf(f func() error) error { return f() }

func TestCohortEndToEnd(t *testing.T) {
	const k, n = 10, 20000
	proto, err := NewBiLOLOHA(k, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cohort, err := NewStream(proto, WithCohort(n, 7))
	if err != nil {
		t.Fatal(err)
	}
	if cohort.CohortSize() != n {
		t.Fatalf("CohortSize = %d", cohort.CohortSize())
	}
	values := make([]int, n)
	for u := range values {
		values[u] = u % 4 // only values 0..3 occur
	}
	var est []float64
	for round := 0; round < 3; round++ {
		res, err := cohort.Collect(values)
		if err != nil {
			t.Fatal(err)
		}
		est = res.Raw
	}
	for v := 0; v < 4; v++ {
		if math.Abs(est[v]-0.25) > 0.05 {
			t.Errorf("est[%d] = %v, want ~0.25", v, est[v])
		}
	}
	for v := 4; v < k; v++ {
		if math.Abs(est[v]) > 0.05 {
			t.Errorf("est[%d] = %v, want ~0", v, est[v])
		}
	}
}

func TestCohortPrivacyAccounting(t *testing.T) {
	proto, _ := NewBiLOLOHA(100, 1.0, 0.5)
	cohort, _ := NewStream(proto, WithCohort(50, 3))
	values := make([]int, 50)
	for round := 0; round < 10; round++ {
		for u := range values {
			values[u] = (u + round*7) % 100 // churn
		}
		if _, err := cohort.Collect(values); err != nil {
			t.Fatal(err)
		}
	}
	spent := cohort.PrivacySpent()
	if len(spent) != 50 {
		t.Fatalf("spent length %d", len(spent))
	}
	for u, s := range spent {
		if s <= 0 || s > 2.0+1e-12 {
			t.Errorf("user %d spent %v, want (0, 2]", u, s)
		}
	}
	if m := cohort.MaxPrivacySpent(); m > 2.0+1e-12 {
		t.Errorf("max spent %v exceeds BiLOLOHA bound 2ε∞", m)
	}
}

func TestCohortValidation(t *testing.T) {
	proto, _ := NewBiLOLOHA(10, 1, 0.5)
	if _, err := NewStream(proto, WithCohort(0, 1)); err == nil {
		t.Error("empty cohort accepted")
	}
	cohort, _ := NewStream(proto, WithCohort(3, 1))
	if _, err := cohort.Collect([]int{1, 2}); err == nil {
		t.Error("mismatched values accepted")
	}
}

func TestFacadeAnalysisHelpers(t *testing.T) {
	v, err := ApproxVarianceLOLOHA(2, 1, 2, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !(v > 0) {
		t.Errorf("V* = %v", v)
	}
	proto, _ := NewBiLOLOHA(100, 2, 1)
	bound, err := AccuracyBound(100, 10000, 0.05, proto.Params())
	if err != nil {
		t.Fatal(err)
	}
	if !(bound > 0) || math.IsInf(bound, 0) {
		t.Errorf("bound = %v", bound)
	}
}

func TestLOLOHABeatsRAPPORBudgetOnChurn(t *testing.T) {
	// The headline claim, through the public API: identical churny
	// workload, k/g lower privacy spend for LOLOHA.
	const k, n, tau = 64, 30, 200
	lol, _ := NewBiLOLOHA(k, 1.0, 0.5)
	rap, _ := NewRAPPOR(k, 1.0, 0.5)
	cl, _ := NewStream(lol, WithCohort(n, 1))
	cr, _ := NewStream(rap, WithCohort(n, 1))
	values := make([]int, n)
	for round := 0; round < tau; round++ {
		for u := range values {
			values[u] = (u*13 + round*17) % k
		}
		if _, err := cl.Collect(values); err != nil {
			t.Fatal(err)
		}
		if _, err := cr.Collect(values); err != nil {
			t.Fatal(err)
		}
	}
	lolMax, rapMax := cl.MaxPrivacySpent(), cr.MaxPrivacySpent()
	if lolMax > 2.0+1e-9 {
		t.Errorf("BiLOLOHA spent %v, cap 2", lolMax)
	}
	if rapMax < 10*lolMax {
		t.Errorf("RAPPOR spent %v, expected ≫ BiLOLOHA's %v", rapMax, lolMax)
	}
}
