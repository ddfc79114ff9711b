package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckOutputsCatchesTamperedRound feeds the checker a run whose
// published rounds are exactly the replay of its inputs, then the same run
// with one estimate of one round off by a single bit: the first must pass
// and the second must fail on that round.
func TestCheckOutputsCatchesTamperedRound(t *testing.T) {
	w, err := workloadByName("bilo-tcp-bulk")
	if err != nil {
		t.Fatal(err)
	}
	users, batch := w.size(true)
	in, err := newInputs(w.spec, users, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := planBatches(users, w.leaves, w.conns, batch)
	enc := in.newEncoder()
	res := &runResult{stored: map[int][][]byte{}}
	for r := 0; r < 6; r++ {
		res.stored[r] = cloneBatches(enc.round(r, plan, nil))
	}
	replay, err := replayStored(in, res.stored, w.procs)
	if err != nil {
		t.Fatal(err)
	}
	for r := range len(res.stored) {
		res.raws = append(res.raws, replay[r])
	}

	checkOutputs(w, in, res)
	if len(res.problems) != 0 {
		t.Fatalf("untampered run failed the checks: %v", res.problems)
	}

	res.raws[4][17] = math.Nextafter(res.raws[4][17], math.Inf(1))
	checkOutputs(w, in, res)
	if len(res.problems) != 1 || !strings.HasPrefix(res.problems[0], "round 4: estimate 17 ") {
		t.Fatalf("tampered round 4: got problems %q, want one naming round 4, estimate 17", res.problems)
	}
}
