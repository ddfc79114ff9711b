package main

import "testing"

func TestJudge(t *testing.T) {
	steady := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1}
	wide := []float64{6, 14, 8, 12, 7, 13, 9, 11, 10, 10}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		alternated     bool
		lowerBetter    bool
		want           string
	}{
		{"slower beyond the bound", steady, scaled(steady, 1.3), true, true, "worse"},
		{"slower within the bound", steady, scaled(steady, 1.1), true, true, "unchanged"},
		{"faster, 10 alternating pairs", steady, scaled(steady, 0.8), true, true, "improved"},
		{"faster, runs not alternated", steady, scaled(steady, 0.8), false, true, "unresolved"},
		{"faster, too few pairs", steady, scaled(steady, 0.8)[:9], true, true, "unresolved"},
		{"higher is better", steady, scaled(steady, 1.2), true, false, "improved"},
		{"parent spread wider than the bound", wide, scaled(wide, 1.05), true, true, "unresolved"},
	} {
		if got := judge(c.parent, c.change, c.lowerBetter, 0.25, c.alternated).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
