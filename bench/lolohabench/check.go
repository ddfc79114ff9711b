package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/loloha-ldp/loloha/internal/analysis"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// The output checks. A daemon adds transport, never arithmetic, so every
// round it publishes must be bit-identical to tallying the same payloads
// in this process; and the estimates must be as accurate as the paper's
// closed-form variance says, within the band integration_test.go uses.

// mseBand bounds mean MSE(raw, truth) ÷ V*.
var mseBand = [2]float64{0.7, 1.4}

// simReplayRounds is how many leading rounds rappor-sim replays bit for
// bit; regenerating RAPPOR reports costs as much as the run itself.
const simReplayRounds = 8

// replayer tallies rounds of encoded batches into bare aggregators, one
// fork per worker. Forks live across rounds, so per-user state such as
// LOLOHA's hash tables is built once, as in a daemon shard.
type replayer struct {
	ct    longitudinal.ColumnarTallier
	agg   longitudinal.MergeableAggregator
	forks []longitudinal.Aggregator
	regs  []longitudinal.Registration
	cols  []longitudinal.ColumnarBatch
}

func newReplayer(in *inputs, workers int) *replayer {
	agg := in.proto.NewAggregator().(longitudinal.MergeableAggregator)
	rp := &replayer{
		ct:    in.proto.(longitudinal.TallyProtocol).WireTallier().(longitudinal.ColumnarTallier),
		agg:   agg,
		forks: make([]longitudinal.Aggregator, workers),
		regs:  make([]longitudinal.Registration, in.users()),
		cols:  make([]longitudinal.ColumnarBatch, workers),
	}
	for i := range rp.forks {
		rp.forks[i] = agg.Fork()
	}
	for u := range rp.regs {
		rp.regs[u] = in.clients[u].WireRegistration()
	}
	return rp
}

// round tallies one round's batches (batch i on worker i mod workers) and
// returns the round's estimates.
func (rp *replayer) round(batches [][]byte) ([]float64, error) {
	errs := make([]error, len(rp.forks))
	var wg sync.WaitGroup
	for wk := range rp.forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			col := &rp.cols[wk]
			for i := wk; i < len(batches); i += len(rp.forks) {
				if err := longitudinal.DecodeColumnar(batches[i], col); err != nil {
					errs[wk] = err
					return
				}
				for j, u := range col.IDs {
					if err := rp.ct.TallyCell(rp.forks[wk], u, col.Payload(j), rp.regs[u]); err != nil {
						errs[wk] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range rp.forks {
		rp.agg.Merge(f)
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rp.agg.EndRound(), nil
}

// checkOutputs runs every output check of one run and records failures in
// res.problems.
func checkOutputs(w *workload, in *inputs, res *runResult) {
	if len(res.raws) == 0 {
		res.problem("no rounds published")
		return
	}
	var replay map[int][]float64
	var err error
	if w.deploy == nil {
		replay, err = replaySim(in, min(len(res.raws), simReplayRounds), w.procs)
	} else {
		replay, err = replayStored(in, res.stored, w.procs)
	}
	if err != nil {
		res.problem("replay: %v", err)
		return
	}
	for _, p := range compareRounds(res.raws, replay) {
		res.problem("%s", p)
	}
	if p := checkAccuracy(in, res.raws); p != "" {
		res.problem("%s", p)
	}
}

// replayStored replays the rounds whose batches a daemon run kept.
func replayStored(in *inputs, stored map[int][][]byte, workers int) (map[int][]float64, error) {
	rounds := make([]int, 0, len(stored))
	for r := range stored {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	rp := newReplayer(in, workers)
	out := make(map[int][]float64, len(rounds))
	for _, r := range rounds {
		raw, err := rp.round(stored[r])
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		out[r] = raw
	}
	return out, nil
}

// replaySim regenerates rappor-sim's first rounds from fresh clients,
// seeded as the cohort was, and tallies them without the Stream.
func replaySim(in *inputs, rounds, workers int) (map[int][]float64, error) {
	in.freshClients()
	plan := planBatches(in.users(), 1, workers, 1024)
	enc := in.newEncoder()
	rp := newReplayer(in, workers)
	out := make(map[int][]float64, rounds)
	var bufs [][]byte
	for r := 0; r < rounds; r++ {
		bufs = enc.round(r, plan, bufs)
		raw, err := rp.round(bufs)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		out[r] = raw
	}
	return out, nil
}

// compareRounds returns one problem per replayed round whose published
// estimates differ from the replay in any bit.
func compareRounds(published [][]float64, replay map[int][]float64) []string {
	var problems []string
	for r, want := range replay {
		if r >= len(published) {
			problems = append(problems, fmt.Sprintf("round %d: replayed but never published", r))
			continue
		}
		got := published[r]
		if len(got) != len(want) {
			problems = append(problems, fmt.Sprintf("round %d: %d estimates published, replay has %d", r, len(got), len(want)))
			continue
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				problems = append(problems, fmt.Sprintf("round %d: estimate %d is %v, replay gives %v", r, v, got[v], want[v]))
				break
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// checkAccuracy compares the mean per-round MSE against the truth with the
// protocol's closed-form variance V*; "" when it is inside mseBand.
func checkAccuracy(in *inputs, raws [][]float64) string {
	v, err := vstar(in.spec, in.users())
	if err != nil {
		return err.Error()
	}
	total := 0.0
	for r, raw := range raws {
		truth := in.truth(r)
		if len(truth) != len(raw) {
			return fmt.Sprintf("round %d: %d estimates for a %d-value domain", r, len(raw), len(truth))
		}
		sum := 0.0
		for i := range raw {
			d := raw[i] - truth[i]
			sum += d * d
		}
		total += sum / float64(len(raw))
	}
	ratio := total / float64(len(raws)) / v
	if !(ratio >= mseBand[0] && ratio <= mseBand[1]) {
		return fmt.Sprintf("mean MSE over %d rounds is %.3g x V* = %.3g, outside [%g, %g]",
			len(raws), ratio, v, mseBand[0], mseBand[1])
	}
	return ""
}

// vstar is the closed-form approximate variance (Eq. (5)) of a workload's
// protocol at n reports per round.
//
// For dBitFlipPM the §4 form assumes every bucket is sampled by exactly
// nd/b users. The estimator divides by that expectation, while the number
// of users sampling a bucket is Binomial(n, d/b); its spread adds
// q²·n(d/b)(1−d/b) to the count, i.e. V*·(1−d/b)·q/(1−q) with
// q/(1−q) = e^{−ε∞/2}. At b=64, d=4, ε∞=2 that is +34%, which the
// measured MSE shows (about 1.36 × V* over 30 seeds), so the check uses
// the corrected variance.
func vstar(spec longitudinal.ProtocolSpec, n int) (float64, error) {
	switch spec.Family {
	case "BiLOLOHA":
		return analysis.VStarBiLOLOHA(spec.EpsInf, spec.Eps1, n)
	case "RAPPOR":
		return analysis.VStarRAPPOR(spec.EpsInf, spec.Eps1, n)
	case "dBitFlipPM":
		v, err := analysis.VStarDBitFlip(spec.EpsInf, spec.B, spec.D, n)
		coverage := (1 - float64(spec.D)/float64(spec.B)) * math.Exp(-spec.EpsInf/2)
		return v * (1 + coverage), err
	}
	return 0, fmt.Errorf("no closed-form variance for %s", spec.Family)
}
