package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// `lolohabench compare A/*.json B/*.json` judges a change (the files in
// the second directory) against its parent (the first), one verdict per
// workload and end-to-end metric:
//
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound in BENCHMARK.json;
//   - improved: at least minPairs runs alternated between the two sides,
//     the change won at least 9 pairs in 10 (ties count for neither), and
//     the medians differ by more than the parent's interquartile range;
//   - unresolved: the parent's own spread exceeds the bound, or a gain
//     without enough alternating pairs;
//   - unchanged: otherwise.
//
// It also compares failed ÷ attempted operations on each side.

const minPairs = 10

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lolohabench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	var dirs []string
	sides := map[string][]*outcome{}
	for _, path := range fs.Args() {
		dir := filepath.Dir(path)
		if _, ok := sides[dir]; !ok {
			dirs = append(dirs, dir)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var o outcome
		if err := json.Unmarshal(raw, &o); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sides[dir] = append(sides[dir], &o)
	}
	if len(dirs) != 2 {
		return fmt.Errorf("want result files from exactly two directories (parent, then change), got %d", len(dirs))
	}
	parent, change := byWorkload(sides[dirs[0]]), byWorkload(sides[dirs[1]])
	names := make([]string, 0, len(parent))
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "parent %s, change %s\n", dirs[0], dirs[1])
	for _, name := range names {
		a, b := parent[name], change[name]
		pairs, alternated := pairing(a, b)
		fmt.Fprintf(stdout, "%s: %d parent runs, %d change runs, %d pairs (alternated: %v)\n",
			name, len(a), len(b), pairs, alternated)
		for _, m := range spec.EndToEnd {
			pa, pb := values(a, m.Name), values(b, m.Name)
			if len(pa) == 0 || len(pb) == 0 {
				continue
			}
			v := judge(pa, pb, m.Better == "lower", m.Bound, alternated)
			fmt.Fprintf(stdout, "  %-20s %-10s parent %s  change %s  wins %d/%d\n",
				m.Name, v.verdict, describe(pa), describe(pb), v.wins, v.pairs)
		}
		fa, fb := failedFrac(a), failedFrac(b)
		verdict := "unchanged"
		if fb > fa {
			verdict = "worse"
		}
		fmt.Fprintf(stdout, "  %-20s %-10s parent %.3g  change %.3g\n", "failed_frac", verdict, fa, fb)
	}
	return nil
}

func byWorkload(runs []*outcome) map[string][]*outcome {
	out := map[string][]*outcome{}
	for _, o := range runs {
		out[o.Workload] = append(out[o.Workload], o)
	}
	for _, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].Started < runs[j].Started })
	}
	return out
}

// pairing pairs the i-th parent run with the i-th change run and reports
// whether the two sides alternated in time.
func pairing(a, b []*outcome) (pairs int, alternated bool) {
	type run struct {
		started int64
		change  bool
	}
	var all []run
	for _, o := range a {
		all = append(all, run{o.Started, false})
	}
	for _, o := range b {
		all = append(all, run{o.Started, true})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].started < all[j].started })
	alternated = len(a) > 0 && len(b) > 0
	for i := 1; i < len(all); i++ {
		alternated = alternated && all[i].change != all[i-1].change
	}
	return min(len(a), len(b)), alternated
}

func values(runs []*outcome, name string) []float64 {
	var xs []float64
	for _, o := range runs {
		if m, ok := o.EndToEnd[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func describe(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}

func failedFrac(runs []*outcome) float64 {
	failed, attempted := 0, 0
	for _, o := range runs {
		failed += o.Failed
		attempted += o.Attempted
	}
	if attempted == 0 {
		return math.NaN()
	}
	return float64(failed) / float64(attempted)
}

type judgement struct {
	verdict     string
	wins, pairs int
}

// judge applies the verdict rules to one metric. parent and change are in
// run order, so parent[i] and change[i] form pair i.
func judge(parent, change []float64, lowerBetter bool, bound float64, alternated bool) judgement {
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	mp, mc := median(parent), median(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case better(mp, mc) && math.Abs(mc-mp) > bound*math.Abs(mp):
		j.verdict = "worse"
	case better(mc, mp) && math.Abs(mc-mp) > iqr(parent) && 10*j.wins >= 9*j.pairs:
		if j.pairs >= minPairs && alternated {
			j.verdict = "improved"
		} else {
			j.verdict = "unresolved"
		}
	case iqr(parent) > bound*math.Abs(mp) && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
