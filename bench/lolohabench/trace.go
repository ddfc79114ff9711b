package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/postprocess"
	"github.com/loloha-ldp/loloha/internal/server"
)

// The traced run. It replays a workload in this process with the same
// seed, spec, batches and round boundaries, calling each layer's public
// functions in the order a daemon would, with a span around every call:
// per batch and per round, never per report. The socket and process
// boundary has no in-process equivalent; it shows up as the residuals
// between the end-to-end percentiles and the traced layer costs.
//
// Each workload runs the same chain, so every layer is measured on every
// workload's own data; a layer off a workload's blocking path (the merge
// chain outside the tree, the columnar path in rappor-sim) is a sibling
// measurement of what it would cost there.

// traceRounds is the number of measured rounds per pass, after the
// untimed warm-up round: about a second of the workload's rounds, so that
// the traced and untraced twins' medians are steady enough to compare,
// and at least one traced round of each close path.
func (cfg *config) traceRounds(w *workload) int {
	if cfg.smoke {
		return 4
	}
	return max(4, int(w.roundsPerSec))
}

// spanRec is one span as the spans file stores it.
type spanRec struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
}

// roundSpan names the structural span around one round; every other span
// is a layer call.
const roundSpan = "round"

// tracer keeps spans in memory, in one lane per recording goroutine so
// that recording takes no lock: lane 0 is the pass's own goroutine, lane
// g+1 the batch worker g. A nil tracer records nothing and reads no clock,
// which makes a round the untraced twin of the one before.
type tracer struct {
	base  time.Time
	lanes [][]spanRec
}

// newTracer returns a tracer whose lanes hold capacity spans each before
// they grow, so that recording never copies a lane inside a traced round.
func newTracer(workers, capacity int) *tracer {
	t := &tracer{base: time.Now(), lanes: make([][]spanRec, workers+1)}
	for i := range t.lanes {
		t.lanes[i] = make([]spanRec, 0, capacity)
	}
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// roundID is the span ID of round r's round span, the parent of every
// layer span of that round; enrollment (round -1) has no parent.
func roundID(r int) int { return r + 1 }

// end records a layer span of round r on lane, from start (a now() value)
// to now. Layer spans get their IDs when the pass's spans are collected.
func (t *tracer) end(lane int, name string, r int, start int64) {
	if t == nil {
		return
	}
	t.lanes[lane] = append(t.lanes[lane], spanRec{Parent: roundID(r), Name: name, Start: start, End: t.now(), Round: r})
}

// endRound records round r's round span, from start to now.
func (t *tracer) endRound(r int, start int64) {
	if t == nil {
		return
	}
	t.lanes[0] = append(t.lanes[0], spanRec{ID: roundID(r), Name: roundSpan, Start: start, End: t.now(), Round: r})
}

// spans returns every span recorded, ordered by start, with layer spans
// numbered after the round spans.
func (t *tracer) spans(workload string) []spanRec {
	var all []spanRec
	for _, l := range t.lanes {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	next := 0
	for _, sp := range all {
		next = max(next, sp.ID)
	}
	for i := range all {
		all[i].Workload = workload
		if all[i].ID == 0 {
			next++
			all[i].ID = next
		}
	}
	return all
}

// passResult is what one pass of the replay measured. Its measured
// rounds alternate: odd rounds are traced, even rounds are their untraced
// twins, so both halves see the same heap and the same host.
type passResult struct {
	procs      int
	spans      []spanRec
	tracedWall []time.Duration
	plainWall  []time.Duration
	ingestWall []time.Duration // untraced rounds: the decode+ingest phase
	reports    int             // traced rounds
	batches    int             // traced rounds
	bytes      map[string][]float64
	raws       [][]float64 // published estimates, warm-up included
	problems   []string
}

// replayPass runs the warm-up round and the measured rounds at
// GOMAXPROCS procs.
func replayPass(cfg *config, w *workload, procs int) (*passResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	users, batch := w.size(cfg.smoke)
	rounds := cfg.traceRounds(w)
	in, err := newInputs(w.spec, users, rounds+1, cfg.seed)
	if err != nil {
		return nil, err
	}
	plan := planBatches(users, w.leaves, w.conns, batch)
	// A traced round records five spans per batch on the workers and a
	// dozen on the pass's own lane; enrollment one per 1,024 users.
	perRound := 5*(len(plan)+procs-1)/procs + 16
	all := newTracer(procs, (rounds/2+1)*perRound+users/1024+1)
	p := &passResult{procs: procs, bytes: map[string][]float64{}}

	leaves := make([]*server.Stream, w.leaves)
	for l := range leaves {
		if leaves[l], err = server.NewStream(in.proto, server.WithShards(procs)); err != nil {
			return nil, err
		}
	}
	root, err := server.NewStream(in.proto, server.WithShards(procs))
	if err != nil {
		return nil, err
	}
	cohort, err := server.NewStream(in.proto, server.WithCohort(users, cfg.seed), server.WithShards(procs))
	if err != nil {
		return nil, err
	}
	for _, s := range []*server.Stream{root, cohort} {
		defer s.Close()
	}
	for l := range leaves {
		lo, hi := l*users/w.leaves, (l+1)*users/w.leaves
		for b := lo; b < hi; b += 1024 {
			t := all.now()
			for u := b; u < min(b+1024, hi); u++ {
				if err := leaves[l].Enroll(u, in.clients[u].WireRegistration()); err != nil {
					return nil, err
				}
			}
			all.end(0, "server.enroll", -1, t)
		}
		defer leaves[l].Close()
	}
	rp := newReplayer(in, procs)
	encs := make([]*encoder, procs)
	for g := range encs {
		encs[g] = in.newEncoder()
	}
	bufs := make([][]byte, len(plan))
	cols := make([]longitudinal.ColumnarBatch, len(plan))
	seqs := make([]uint64, w.leaves)
	var snap bytes.Buffer

	// parallel runs f(g, i) for every batch i, batch i on goroutine i mod
	// procs: the daemon's data connections, or the cohort's shards.
	parallel := func(f func(g, i int) error) error {
		errs := make([]error, procs)
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(plan); i += procs {
					if err := f(g, i); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		return firstError(errs)
	}

	for r := 0; r <= rounds; r++ {
		var tr *tracer
		if r%2 == 1 {
			tr = all
		}
		// Each round's garbage is collected between rounds, not inside the
		// next round's spans.
		runtime.GC()
		roundStart := time.Now()
		t0 := tr.now()
		err := parallel(func(g, i int) error {
			t := tr.now()
			encs[g].generate(r, plan[i].lo, plan[i].hi)
			tr.end(g+1, "longitudinal.append", r, t)
			t = tr.now()
			bufs[i] = encs[g].encode(bufs[i][:0])
			tr.end(g+1, "longitudinal.columnar_encode", r, t)
			return nil
		})
		ingestStart := time.Now()
		if err == nil {
			err = parallel(func(g, i int) error {
				t := tr.now()
				if err := longitudinal.DecodeColumnar(bufs[i], &cols[i]); err != nil {
					return err
				}
				tr.end(g+1, "longitudinal.columnar_decode", r, t)
				t = tr.now()
				err := leaves[plan[i].leaf].IngestColumnar(&cols[i])
				tr.end(g+1, "server.ingest", r, t)
				return err
			})
		}
		ingestWall := time.Since(ingestStart)
		if err == nil {
			err = parallel(func(g, i int) error {
				t := tr.now()
				for j, u := range cols[i].IDs {
					if err := rp.ct.TallyCell(rp.forks[g], u, cols[i].Payload(j), rp.regs[u]); err != nil {
						return err
					}
				}
				tr.end(g+1, "longitudinal.tally", r, t)
				return nil
			})
		}
		if err != nil {
			return nil, fmt.Errorf("replay round %d: %w", r, err)
		}

		var pub server.RoundResult
		// Outside the tree, traced rounds alternate between the tree's
		// close chain (1, 5, 9, ...) and a plain close (3, 7, ...), each
		// with its untraced twin one round later.
		if w.leaves > 1 || (r-1)/2%2 == 0 {
			// The collector-tree close chain: every leaf exports, the root
			// merges each envelope, then publishes.
			for l, leaf := range leaves {
				t := tr.now()
				res, exp, err := leaf.CloseRoundExport()
				tr.end(0, "server.close_round_export", r, t)
				if err != nil {
					return nil, err
				}
				t = tr.now()
				image, err := persist.Append(nil, exp)
				tr.end(0, "persist.image_encode", r, t)
				if err != nil {
					return nil, err
				}
				p.bytes["persist.image_bytes"] = append(p.bytes["persist.image_bytes"], float64(len(image)))
				seqs[l]++
				t = tr.now()
				env, err := persist.AppendEnvelopeImage(nil, fmt.Sprintf("leaf-%d", l), res.Round, seqs[l], image)
				tr.end(0, "persist.envelope_encode", r, t)
				if err != nil {
					return nil, err
				}
				t = tr.now()
				dec, err := persist.DecodeEnvelope(env)
				tr.end(0, "persist.envelope_decode", r, t)
				if err != nil {
					return nil, err
				}
				t = tr.now()
				_, dup, err := root.MergeEnvelope(dec)
				tr.end(0, "server.merge_envelope", r, t)
				if err != nil || dup {
					return nil, fmt.Errorf("merging leaf %d round %d: duplicate=%v %v", l, r, dup, err)
				}
				if w.leaves == 1 {
					pub = res
				}
			}
			name := "server.close_round"
			if w.leaves == 1 {
				// Outside the tree the root is a sibling, not the publisher.
				name = "server.close_round_sibling"
			}
			t := tr.now()
			res := root.CloseRound()
			tr.end(0, name, r, t)
			if w.leaves > 1 {
				pub = res
			}
		} else {
			t := tr.now()
			pub = leaves[0].CloseRound()
			tr.end(0, "server.close_round", r, t)
		}
		p.raws = append(p.raws, pub.Raw)

		for _, f := range rp.forks {
			rp.agg.Merge(f)
		}
		t := tr.now()
		bare := rp.agg.EndRound()
		tr.end(0, "longitudinal.end_round", r, t)
		t = tr.now()
		postprocess.Apply(postprocess.None, append([]float64(nil), bare...))
		tr.end(0, "postprocess.apply", r, t)
		t = tr.now()
		collected, err := cohort.Collect(in.values(r))
		tr.end(0, "server.collect", r, t)
		if err != nil {
			return nil, err
		}
		snap.Reset()
		t = tr.now()
		err = leaves[0].Snapshot(&snap)
		tr.end(0, "server.snapshot", r, t)
		if err != nil {
			return nil, err
		}
		p.bytes["persist.snapshot_bytes"] = append(p.bytes["persist.snapshot_bytes"], float64(snap.Len()))
		tr.endRound(r, t0)
		wall := time.Since(roundStart)

		if !identical(pub.Raw, bare) || !identical(pub.Raw, collected.Raw) {
			p.problems = append(p.problems, fmt.Sprintf("trace p%d round %d: published, bare-aggregator and Collect estimates differ", procs, r))
		}
		switch {
		case r == 0:
		case tr != nil:
			p.tracedWall = append(p.tracedWall, wall)
			p.reports += users
			p.batches += len(plan)
		default:
			p.plainWall = append(p.plainWall, wall)
			p.ingestWall = append(p.ingestWall, ingestWall)
		}
	}
	p.spans = all.spans(w.name)
	return p, nil
}

func identical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// spanStats sums the measured rounds' span durations by name.
type spanStats struct {
	total map[string]time.Duration
	count map[string]int
}

func statsOf(spans []spanRec) spanStats {
	s := spanStats{total: map[string]time.Duration{}, count: map[string]int{}}
	for _, sp := range spans {
		if sp.Round < 1 && sp.Name != "server.enroll" {
			continue
		}
		s.total[sp.Name] += time.Duration(sp.End - sp.Start)
		s.count[sp.Name]++
	}
	return s
}

// per returns the total time of a layer divided by n, in unit.
func (s spanStats) per(name string, n int, unit time.Duration) float64 {
	return float64(s.total[name]) / float64(n) / float64(unit)
}

// perCall returns a layer's mean time per call, in unit.
func (s spanStats) perCall(name string, unit time.Duration) float64 {
	return s.per(name, s.count[name], unit)
}

// coverage is the share of the measured rounds' wall time during which
// some layer span was running. With concurrent goroutines spans overlap,
// so this counts the union of their intervals, not the sum.
func coverage(spans []spanRec) float64 {
	var wall time.Duration
	type iv struct{ a, b int64 }
	byRound := map[int][]iv{}
	for _, sp := range spans {
		if sp.Round < 1 {
			continue
		}
		if sp.Name == roundSpan {
			wall += time.Duration(sp.End - sp.Start)
			continue
		}
		byRound[sp.Round] = append(byRound[sp.Round], iv{sp.Start, sp.End})
	}
	var covered int64
	for _, ivs := range byRound {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		cur := ivs[0]
		for _, x := range ivs[1:] {
			if x.a > cur.b {
				covered += cur.b - cur.a
				cur = x
			} else if x.b > cur.b {
				cur.b = x.b
			}
		}
		covered += cur.b - cur.a
	}
	return float64(covered) / float64(wall)
}

// overhead is the median over the pass's twin pairs of traced round wall
// ÷ untraced round wall, minus one. A pair runs back to back, so the
// host's drift cancels within it.
func (p *passResult) overhead() float64 {
	ratios := make([]float64, min(len(p.tracedWall), len(p.plainWall)))
	for i := range ratios {
		ratios[i] = float64(p.tracedWall[i]) / float64(p.plainWall[i])
	}
	return median(ratios) - 1
}

func sumDuration(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// traceResult is the per-layer half of a -trace run.
type traceResult struct {
	metrics  map[string]metric
	problems []string
}

// traceWorkload runs one pass at GOMAXPROCS 1 and one at 2, writes their
// spans, and derives the per-layer metrics at the daemons' GOMAXPROCS (the
// benchmark's own for rappor-sim).
func traceWorkload(cfg *config, w *workload, e2e *runResult) (*traceResult, error) {
	out := &traceResult{metrics: map[string]metric{}}
	passes := map[int]*passResult{}
	coverageMin, overheadMax := math.Inf(1), math.Inf(-1)
	for _, procs := range []int{1, 2} {
		pass, err := replayPass(cfg, w, procs)
		if err != nil {
			return nil, err
		}
		passes[procs] = pass
		out.problems = append(out.problems, pass.problems...)
		for r, raw := range pass.raws {
			if r < len(e2e.raws) && !identical(raw, e2e.raws[r]) {
				out.problems = append(out.problems, fmt.Sprintf("trace p%d round %d: estimates differ from the end-to-end run's", procs, r))
			}
		}
		if err := writeSpans(cfg.out, w.name, procs, pass.spans); err != nil {
			return nil, err
		}
		coverageMin = min(coverageMin, coverage(pass.spans))
		overheadMax = max(overheadMax, pass.overhead())
	}

	p := passes[w.procs]
	st := statsOf(p.spans)
	users, _ := w.size(cfg.smoke)
	ns, us, msec := time.Nanosecond, time.Microsecond, time.Millisecond
	set := func(name string, v float64, unit string) { out.metrics[name] = metric{Value: v, Unit: unit} }
	set("longitudinal.append_ns", st.per("longitudinal.append", p.reports, ns), "ns")
	set("longitudinal.columnar_encode_ns", st.per("longitudinal.columnar_encode", p.reports, ns), "ns")
	set("longitudinal.columnar_decode_ns", st.per("longitudinal.columnar_decode", p.reports, ns), "ns")
	set("longitudinal.tally_ns", st.per("longitudinal.tally", p.reports, ns), "ns")
	set("longitudinal.end_round_us", st.perCall("longitudinal.end_round", us), "us")
	set("server.ingest_ns", st.per("server.ingest", p.reports, ns), "ns")
	set("server.enroll_us", st.per("server.enroll", users, us), "us")
	set("server.close_round_us", st.perCall("server.close_round", us), "us")
	set("postprocess.apply_us", st.perCall("postprocess.apply", us), "us")
	set("server.collect_ms", st.perCall("server.collect", msec), "ms")
	set("server.close_round_export_us", st.perCall("server.close_round_export", us), "us")
	set("persist.image_encode_us", st.perCall("persist.image_encode", us), "us")
	set("persist.image_bytes", mean(p.bytes["persist.image_bytes"]), "bytes")
	set("persist.envelope_encode_us", st.perCall("persist.envelope_encode", us), "us")
	set("persist.envelope_decode_us", st.perCall("persist.envelope_decode", us), "us")
	set("server.merge_envelope_us", st.perCall("server.merge_envelope", us), "us")
	set("server.snapshot_ms", st.perCall("server.snapshot", msec), "ms")
	set("persist.snapshot_bytes", mean(p.bytes["persist.snapshot_bytes"]), "bytes")
	set("server.ingest_scaling_p2_p1", float64(sumDuration(passes[1].ingestWall))/float64(sumDuration(passes[2].ingestWall)), "x")
	set("trace.coverage", coverageMin, "ratio")
	set("trace.overhead", overheadMax, "ratio")
	set("lolohabench.late_ms_p99", quantile(e2e.lateMS, 0.99), "ms")
	set("process.cpu_us_per_report", float64(e2e.cpu.Microseconds())/float64(e2e.reports), "us")

	// Residuals: what the end-to-end medians spend beyond the traced
	// layers — sockets, HTTP, process boundaries, fsync. rappor-sim has no
	// boundary; its residuals compare the untraced and traced Collect.
	perBatch := (st.total["longitudinal.columnar_decode"] + st.total["server.ingest"]) / time.Duration(p.batches)
	closeChain := time.Duration(st.perCall("server.close_round", ns))
	if w.deploy == nil {
		perBatch = time.Duration(st.perCall("server.collect", ns))
		closeChain = perBatch
	} else if w.leaves > 1 {
		closeChain = treeCloseChain(p.spans)
	}
	set("netserver.batch_overhead_us", quantile(e2e.batchMS, 0.5)*1e3-float64(perBatch)/1e3, "us")
	set("netserver.round_close_overhead_ms", quantile(e2e.closeMS, 0.5)-ms(closeChain), "ms")

	// The daemons' own counters of failed and wasted work. A run with no
	// merge traffic wasted none, so its useful ratio is 1.
	c := e2e.counts
	set("netserver.reports_rejected", float64(c.reportsRejected), "count")
	set("netserver.ship_failed", float64(c.shipFailed), "count")
	set("netserver.ship_retries", float64(c.shipRetries), "count")
	set("netserver.merge_duplicates", float64(c.mergeDuplicates), "count")
	set("netserver.sse_dropped_rounds", float64(c.sseDropped), "count")
	useful := 1.0
	if c.mergeApplied+c.mergeDuplicates > 0 {
		useful = float64(c.mergeApplied) / float64(c.mergeApplied+c.mergeDuplicates)
	}
	set("netserver.merge_useful_ratio", useful, "ratio")

	bytesPerUser, allocs, err := probeState(cfg, w)
	if err != nil {
		return nil, err
	}
	set("server.state_bytes_per_user", bytesPerUser, "bytes")
	set("server.ingest_allocs_per_batch", allocs, "allocs")

	ratios, err := ratioRows(cfg.smoke)
	if err != nil {
		return nil, err
	}
	for k, v := range ratios {
		set(k, v, "x")
	}
	return out, nil
}

// treeCloseChain is the mean critical path of a tree round's close: the
// leaves export and encode in parallel, the root decodes and merges each
// envelope, then publishes.
func treeCloseChain(spans []spanRec) time.Duration {
	type roundCost struct {
		leaf       []time.Duration
		root       time.Duration
		leafBudget int
	}
	rounds := map[int]*roundCost{}
	for _, sp := range spans {
		if sp.Round < 1 {
			continue
		}
		rc := rounds[sp.Round]
		if rc == nil {
			rc = &roundCost{}
			rounds[sp.Round] = rc
		}
		d := time.Duration(sp.End - sp.Start)
		switch sp.Name {
		case "server.close_round_export":
			rc.leaf = append(rc.leaf, d)
		case "persist.image_encode", "persist.envelope_encode":
			rc.leaf[len(rc.leaf)-1] += d
		case "persist.envelope_decode", "server.merge_envelope", "server.close_round":
			rc.root += d
		}
	}
	var total time.Duration
	for _, rc := range rounds {
		total += slices.Max(rc.leaf) + rc.root
	}
	return total / time.Duration(len(rounds))
}

// probeState measures what a daemon holds per enrolled user once its
// per-user tables are built (heap after enrolling and one ingested round),
// and the allocations per steady-state IngestColumnar call.
func probeState(cfg *config, w *workload) (bytesPerUser, allocsPerBatch float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	users, batch := w.size(cfg.smoke)
	in, err := newInputs(w.spec, users, 1, cfg.seed)
	if err != nil {
		return 0, 0, err
	}
	plan := planBatches(users, 1, 1, batch)
	bufs := in.newEncoder().round(0, plan, nil)
	cols := make([]longitudinal.ColumnarBatch, len(plan))
	for i := range plan {
		if err := longitudinal.DecodeColumnar(bufs[i], &cols[i]); err != nil {
			return 0, 0, err
		}
	}
	regs := make([]longitudinal.Registration, users)
	for u := range regs {
		regs[u] = in.clients[u].WireRegistration()
	}
	// The inputs are dead from here on, so the first collection frees them
	// and the difference below is the stream's alone.
	// Two collections also empty the sync.Pool caches earlier passes
	// filled.
	proto := in.proto
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := server.NewStream(proto, server.WithShards(w.procs))
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	for u, reg := range regs {
		if err := s.Enroll(u, reg); err != nil {
			return 0, 0, err
		}
	}
	for i := range cols {
		if err := s.IngestColumnar(&cols[i]); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerUser = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(users)

	s.CloseRound()
	allocs := make([]float64, len(cols))
	for i := range cols {
		runtime.ReadMemStats(&before)
		err := s.IngestColumnar(&cols[i])
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		allocs[i] = float64(after.Mallocs - before.Mallocs)
	}
	return bytesPerUser, median(allocs), nil
}

// writeSpans writes one pass's spans as JSON lines to
// DIR/<workload>-p<procs>.spans.jsonl.
func writeSpans(dir, workload string, procs int, spans []spanRec) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-p%d.spans.jsonl", workload, procs)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
