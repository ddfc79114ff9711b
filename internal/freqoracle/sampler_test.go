package freqoracle

import (
	"bytes"
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// samplerGrid spans the calibrations the protocols actually produce: very
// sparse q (large ε OUE-style IRR), moderately sparse, and dense SUE-style.
var samplerGrid = []struct{ p, q float64 }{
	{0.5, 0.018},
	{0.5, 0.119},
	{0.803, 0.197},
	{0.765, 0.235},
	{0.731, 0.269},
	{0.9, 0.45},
	{1, 0.1},     // deterministic ones
	{0.25, 0},    // no base pass
	{0.02, 0.02}, // p == q: ones behave like zeros
}

// maskOf packs a list of "one" positions into the sampler's mask layout.
func maskOf(k int, ones ...int) []uint64 {
	m := make([]uint64, MaskWords(k))
	for _, i := range ones {
		m[i>>6] |= 1 << (uint(i) & 63)
	}
	return m
}

// onesPatterns returns representative "one" masks for domain size k:
// none, singletons at the boundaries, a spread multi-one set, and random
// masks at the densities memoized PRR encodings have (every word
// boundary and ragged tail gets populated bits).
func onesPatterns(k int) [][]uint64 {
	out := [][]uint64{
		nil,
		maskOf(k, 0),
		maskOf(k, k-1),
		maskOf(k, k/2),
		maskOf(k, 0, k/3, k/2, k-1),
	}
	r := randsrc.NewSeeded(uint64(k))
	for _, density := range []float64{0.12, 0.27, 0.5, 1} {
		var ones []int
		for i := 0; i < k; i++ {
			if r.Bernoulli(density) {
				ones = append(ones, i)
			}
		}
		out = append(out, maskOf(k, ones...))
	}
	return out
}

// TestReportSamplerPathsBitIdentical is the parity gate of the
// word-parallel sampler: it and the per-position reference loop must
// produce byte-identical payloads for every calibration, domain size
// (word-aligned or ragged), "one" mask and round anchor.
func TestReportSamplerPathsBitIdentical(t *testing.T) {
	for _, k := range []int{1, 7, 16, 63, 64, 65, 127, 1000, 1024} {
		for _, pq := range samplerGrid {
			s, err := NewReportSampler(k, pq.p, pq.q)
			if err != nil {
				t.Fatal(err)
			}
			ref := s
			ref.Reference = true
			for _, ones := range onesPatterns(k) {
				for rb := uint64(0); rb < 100; rb++ {
					got := s.AppendReport(nil, rb*0x9E3779B9+1, ones)
					want := ref.AppendReport(nil, rb*0x9E3779B9+1, ones)
					if !bytes.Equal(got, want) {
						t.Fatalf("k=%d p=%v q=%v ones=%x rb=%d: word path %x != reference %x",
							k, pq.p, pq.q, ones, rb, got, want)
					}
				}
			}
		}
	}
}

func TestReportSamplerRejectsBadParams(t *testing.T) {
	for _, bad := range []struct {
		k    int
		p, q float64
	}{
		{0, 0.5, 0.1},
		{8, 0.1, 0.5},  // p < q
		{8, 1.1, 0.5},  // p > 1
		{8, 0.5, -0.1}, // q < 0
		{8, 1, 1},      // q == 1
		{8, math.NaN(), 0.1},
	} {
		if _, err := NewReportSampler(bad.k, bad.p, bad.q); err == nil {
			t.Errorf("NewReportSampler(%d, %v, %v) accepted", bad.k, bad.p, bad.q)
		}
	}
}

// TestReportSamplerMarginals checks the per-position flip probabilities on
// both paths: base positions fire at rate q, "one" positions at rate p.
func TestReportSamplerMarginals(t *testing.T) {
	const k, rounds = 64, 60000
	for _, pq := range []struct{ p, q float64 }{{0.5, 0.119}, {0.803, 0.197}} {
		for _, reference := range []bool{false, true} {
			s, err := NewReportSampler(k, pq.p, pq.q)
			if err != nil {
				t.Fatal(err)
			}
			s.Reference = reference
			ones := maskOf(k, 5, 40)
			counts := make([]int, k)
			buf := make([]byte, 0, s.PayloadBytes())
			r := randsrc.NewSeeded(7)
			for round := 0; round < rounds; round++ {
				buf = s.AppendReport(buf[:0], r.Uint64(), ones)
				for i := 0; i < k; i++ {
					if buf[i>>3]>>(uint(i)&7)&1 == 1 {
						counts[i]++
					}
				}
			}
			for i := 0; i < k; i++ {
				want := pq.q
				if i == 5 || i == 40 {
					want = pq.p
				}
				got := float64(counts[i]) / rounds
				// 6-sigma binomial tolerance at the larger rate.
				if math.Abs(got-want) > 0.013 {
					t.Errorf("reference=%v p=%v q=%v: position %d fires at %v, want %v",
						reference, pq.p, pq.q, i, got, want)
				}
			}
		}
	}
}

// TestReportSamplerFlipCountsBinomial is the χ² goodness-of-fit gate: with
// no "one" positions, the number of skip-sampled flips per round must
// follow Binomial(k, q). Counts are pooled so every cell has expected
// frequency >= 5, the usual χ² validity rule.
func TestReportSamplerFlipCountsBinomial(t *testing.T) {
	const k, rounds = 64, 40000
	const q = 0.1
	s, err := NewReportSampler(k, q, q)
	if err != nil {
		t.Fatal(err)
	}

	observed := make([]int, k+1)
	buf := make([]byte, 0, s.PayloadBytes())
	r := randsrc.NewSeeded(13)
	for round := 0; round < rounds; round++ {
		buf = s.AppendReport(buf[:0], r.Uint64(), nil)
		flips := 0
		for _, b := range buf {
			for w := b; w != 0; w &= w - 1 {
				flips++
			}
		}
		observed[flips]++
	}

	// Binomial(k, q) pmf via the recurrence pmf(i+1)/pmf(i).
	pmf := make([]float64, k+1)
	pmf[0] = math.Pow(1-q, k)
	for i := 0; i < k; i++ {
		pmf[i+1] = pmf[i] * float64(k-i) / float64(i+1) * q / (1 - q)
	}

	// Pool consecutive outcomes until each cell expects >= 5 rounds; fold
	// the remainder tail into the final cell.
	var cellObs, cellExp []float64
	obs, exp := 0.0, 0.0
	for i := 0; i <= k; i++ {
		obs += float64(observed[i])
		exp += pmf[i] * rounds
		if exp >= 5 {
			cellObs, cellExp = append(cellObs, obs), append(cellExp, exp)
			obs, exp = 0, 0
		}
	}
	if len(cellExp) == 0 {
		t.Fatal("no χ² cells; rounds too small")
	}
	cellObs[len(cellObs)-1] += obs
	cellExp[len(cellExp)-1] += exp
	var chi2 float64
	for i := range cellObs {
		d := cellObs[i] - cellExp[i]
		chi2 += d * d / cellExp[i]
	}
	cells := len(cellObs)
	// Critical value of χ² at significance 1e-4 grows roughly like
	// df + 4*sqrt(2*df) + 15; with the fixed seed above this is a
	// deterministic regression test, not a flaky statistical one.
	df := float64(cells - 1)
	crit := df + 4*math.Sqrt(2*df) + 15
	if chi2 > crit {
		t.Errorf("skip-sampled flip counts: χ² = %.1f over %d cells (crit ~%.1f); not Binomial(%d, %v)?",
			chi2, cells, crit, k, q)
	}
}

// TestUEPrivatizeMatchesSamplerContract: the one-shot UE mechanism must be
// exactly one sampler round with ones = {v} anchored at the next word of
// the caller's stream.
func TestUEPrivatizeMatchesSamplerContract(t *testing.T) {
	const k, eps = 48, 2.0
	m, err := NewOUE(k, eps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewReportSampler(k, m.Params().P, m.Params().Q)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed < 50; seed++ {
		r1, r2 := randsrc.NewSeeded(seed), randsrc.NewSeeded(seed)
		v := int(seed) % k
		got := AppendUEReport(nil, m.Privatize(v, r1))
		want := s.AppendReport(nil, r2.Uint64(), maskOf(k, v))
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Privatize(%d) = %x, sampler contract %x", seed, v, got, want)
		}
	}
}

// BenchmarkReportSampler measures one sampler round at k = 1024 for the
// chained-UE IRR calibrations, with a "one" mask at the density of the
// matching memoized PRR encoding.
func BenchmarkReportSampler(b *testing.B) {
	const k = 1024
	for _, c := range []struct {
		name       string
		p, q, ones float64
	}{
		{"RAPPOR", 0.765, 0.235, 0.269},
		{"L-OSUE", 0.803, 0.197, 0.119},
		{"L-OSUE-e4", 0.895, 0.105, 0.018},
	} {
		s, err := NewReportSampler(k, c.p, c.q)
		if err != nil {
			b.Fatal(err)
		}
		r := randsrc.NewSeeded(1)
		var ones []int
		for i := 0; i < k; i++ {
			if r.Bernoulli(c.ones) {
				ones = append(ones, i)
			}
		}
		mask := maskOf(k, ones...)
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, s.PayloadBytes())
			for i := 0; i < b.N; i++ {
				buf = s.AppendReport(buf[:0], uint64(i), mask)
			}
		})
	}
}

// TestReportSamplerZeroAllocs: with capacity in dst, a round allocates
// nothing on either a word-aligned or a ragged domain (the ragged one
// routes its last word through the on-stack tail buffer).
func TestReportSamplerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	for _, k := range []int{100, 1024} {
		s, err := NewReportSampler(k, 0.765, 0.235)
		if err != nil {
			t.Fatal(err)
		}
		mask := maskOf(k, 0, 3, k/2, k-1)
		buf := make([]byte, 0, s.PayloadBytes())
		rb := uint64(0)
		avg := testing.AllocsPerRun(200, func() {
			buf = s.AppendReport(buf[:0], rb, mask)
			rb++
		})
		if avg != 0 {
			t.Errorf("k=%d: AppendReport allocates %.2f times per round, want 0", k, avg)
		}
	}
}
