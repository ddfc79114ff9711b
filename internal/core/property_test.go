package core

import (
	"testing"
	"testing/quick"
)

func TestQuickConstructorAcceptsAllValidBudgets(t *testing.T) {
	f := func(a, b, gRaw, kRaw uint8) bool {
		epsInf := 0.2 + float64(a%60)/10
		eps1 := (0.05 + float64(b%90)/100) * epsInf
		g := int(gRaw%15) + 2
		k := int(kRaw%200) + 2
		p, err := New(k, g, epsInf, eps1)
		if err != nil {
			return false
		}
		return p.G() == g && p.K() == k &&
			p.LongitudinalBudget() == float64(g)*epsInf &&
			p.Params().P1 > p.Params().Q1 && p.Params().P2 > p.Params().Q2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickClientReportsInRange(t *testing.T) {
	f := func(seed uint64, vRaw uint8) bool {
		const k, g = 50, 4
		p, err := New(k, g, 2, 1)
		if err != nil {
			return false
		}
		cl := p.newClient(seed)
		rep, rest, err := DecodeReport(cl.AppendReport(nil, int(vRaw)%k), g, cl.WireRegistration().HashSeed)
		return err == nil && len(rest) == 0 && rep.X >= 0 && rep.X < g && rep.HashSeed == cl.HashSeed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickOptimalGStableUnderScaling(t *testing.T) {
	// OptimalG depends only on (ε∞, ε1), never on k or n; evaluate twice
	// to confirm determinism and bounds.
	f := func(a, b uint8) bool {
		epsInf := 0.2 + float64(a%60)/10
		eps1 := (0.05 + float64(b%90)/100) * epsInf
		g1, g2 := OptimalG(epsInf, eps1), OptimalG(epsInf, eps1)
		return g1 == g2 && g1 >= 2 && g1 < 2000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickAggregatorCountsBounded(t *testing.T) {
	// After any batch of reports, 0 <= C(v) <= n must hold for every v —
	// the support-counting loop can never over- or under-count.
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 || len(seeds) > 64 {
			return true
		}
		const k = 20
		p, err := NewBinary(k, 2, 1)
		if err != nil {
			return false
		}
		agg := p.NewServer()
		for u, s := range seeds {
			cl := p.newClient(uint64(s) + 1)
			tally(t, p, agg, u, cl, int(s)%k)
		}
		n := int64(len(seeds))
		for _, c := range agg.Counts() {
			if c < 0 || c > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEstimatesSumNearOne(t *testing.T) {
	// Eq. (3) estimates over a full cohort must sum close to 1 in
	// expectation; with BiLOLOHA's q′1 = 1/g the sum is exactly
	// determined by the counts, so check it is finite and near 1 for a
	// real batch.
	const k, n = 16, 2000
	p, err := NewBinary(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewServer()
	for u := 0; u < n; u++ {
		cl := p.newClient(uint64(u))
		tally(t, p, agg, u, cl, u%k)
	}
	est := agg.EndRound()
	sum := 0.0
	for _, e := range est {
		sum += e
	}
	if sum < 0.5 || sum > 1.5 {
		t.Errorf("estimates sum to %v, want ~1", sum)
	}
}
