package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/loloha-ldp/loloha/internal/server"
)

// runResult is what one end-to-end run measured, plus what its output
// checks need. A run spreads its timed rounds over several instances of
// the system under test (fresh daemons, or a fresh in-process stream), each
// set up from scratch and fed the same rounds from fresh clients. Part of
// a run's speed comes with its processes (20-second stretches of one long
// run varied by about 3%, back-to-back runs by up to 10%), so samples are
// pooled over instances; set-up is timed once per instance.
type runResult struct {
	reports   int           // reports tallied in the timed rounds
	timed     time.Duration // the timed rounds' summed send-to-published time
	batchMS   []float64     // batch send (open loop: due time) to ack
	closeMS   []float64     // round close request to published result
	lateMS    []float64     // how late the generator sent each batch
	setupS    []float64     // one per instance
	rssMB     float64       // the largest instance's peak RSS
	cpu       time.Duration // CPU time of the system under test over the timed rounds
	attempted int
	failed    int
	counts    daemonCounts // zero for the in-process simulation
	// raws holds the first instance's published Raw of every round, warm-up
	// included (later instances must publish the same bits); stored holds
	// the first instance's encoded batches of the rounds replayed bit for
	// bit.
	raws     [][]float64
	stored   map[int][][]byte
	problems []string
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// published records instance inst's estimates of round r, which must be
// bit-identical to the first instance's.
func (r *runResult) published(inst, round int, raw []float64) {
	if inst == 0 {
		r.raws = append(r.raws, raw)
	} else if !identical(raw, r.raws[round]) {
		r.problem("instance %d round %d: estimates differ from instance 0's", inst, round)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// instances is the number of instances a run sets up and times.
func (cfg *config) instances() int {
	if cfg.smoke {
		return 2
	}
	return 5
}

// rounds is the number of rounds each instance runs: an untimed warm-up
// round 0 (per-user tables build and buffers grow there, as they do once
// in a daemon's life), then its share of the run's timed rounds.
func (cfg *config) rounds(w *workload) int {
	if cfg.smoke {
		return 2
	}
	total := cfg.seconds * w.roundsPerSec
	return 1 + max(1, int(math.Round(total/float64(cfg.instances()))))
}

// runDaemons runs a daemon workload end to end on each instance in turn:
// set-up (spawn and enroll), a warm-up round, then timed rounds. Each
// round's reports are generated and encoded before its timed part begins.
func runDaemons(cfg *config, w *workload, in *inputs) (*runResult, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	res := &runResult{stored: map[int][][]byte{}}
	users, batch := w.size(cfg.smoke)
	plan := planBatches(users, w.leaves, w.conns, batch)
	for inst := 0; inst < cfg.instances(); inst++ {
		in.freshClients()
		t0 := time.Now()
		dep, err := w.deploy(cfg, w, cfg.stateDir(w, inst))
		if err != nil {
			return nil, err
		}
		attempted, rejected, err := dep.enroll(in, w.leaves)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		res.attempted += attempted
		res.failed += rejected
		if err == nil {
			err = runInstance(cfg, w, in, dep, inst, plan, res)
		}
		dep.stop()
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", inst, err)
		}
	}
	return res, nil
}

// runInstance runs one deployment's rounds and adds what it measured to
// res.
func runInstance(cfg *config, w *workload, in *inputs, dep *deployment, inst int, plan []span, res *runResult) error {
	users := in.users()
	enc := in.newEncoder()
	var bufs [][]byte
	rounds := cfg.rounds(w)
	var cpu0 time.Duration
	for r := 0; r < rounds; r++ {
		bufs = enc.round(r, plan, bufs)
		if inst == 0 && r%w.checkEvery == 0 {
			res.stored[r] = cloneBatches(bufs)
		}
		if r == 1 {
			var err error
			if cpu0, err = dep.cpu(); err != nil {
				return err
			}
		}
		var sent roundSend
		var err error
		if w.rate > 0 {
			sent, err = openLoop(dep, plan, bufs, w.rate)
		} else {
			sent, err = closedLoop(dep, plan, bufs)
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		closeStart := time.Now()
		bodies, err := closeAll(dep.closers)
		done := time.Now()
		if err != nil {
			return fmt.Errorf("closing round %d: %w", r, err)
		}
		res.attempted += sent.accepted + sent.rejected + len(bodies)
		res.failed += sent.rejected
		for l, body := range bodies {
			pub, shipFailed, err := parseClose(body)
			if err != nil {
				return fmt.Errorf("round %d close response: %w", r, err)
			}
			if shipFailed {
				res.failed++
			}
			want := users / w.leaves
			if pub.Round != r || pub.Reports != want {
				res.problem("instance %d round %d: daemon %d published round %d with %d reports, want round %d with %d",
					inst, r, l, pub.Round, pub.Reports, r, want)
			}
			if w.leaves == 1 {
				res.published(inst, r, pub.Raw)
			}
		}
		if r == 0 {
			continue
		}
		res.timed += done.Sub(sent.start)
		res.reports += sent.accepted
		res.batchMS = append(res.batchMS, sent.batchMS...)
		res.lateMS = append(res.lateMS, sent.lateMS...)
		res.closeMS = append(res.closeMS, ms(done.Sub(closeStart)))
	}
	cpu1, err := dep.cpu()
	if err != nil {
		return err
	}
	res.cpu += cpu1 - cpu0
	rss, err := dep.rss()
	if err != nil {
		return err
	}
	res.rssMB = max(res.rssMB, rss)
	if w.leaves > 1 {
		for t := 0; t < rounds; t++ {
			pub, err := dep.publish.round(t)
			if err != nil {
				return fmt.Errorf("fetching root round %d: %w", t, err)
			}
			res.published(inst, t, pub.Raw)
		}
	}
	return dep.countFailures(res)
}

// daemonCounts sums the failure and waste counters of /v1/status over the
// daemons of every instance, each read once its rounds are over.
type daemonCounts struct {
	reportsRejected, sseDropped                  uint64
	shipFailed, shipRetries                      uint64
	mergeApplied, mergeDuplicates, mergeRejected uint64
}

// countFailures adds every daemon's counters to res.counts and the
// failures only the daemons saw (ships that errored, merges the root
// refused) to res.failed.
func (d *deployment) countFailures(res *runResult) error {
	c := &res.counts
	before := c.shipFailed + c.mergeRejected
	for _, a := range d.controls() {
		st, err := a.status()
		if err != nil {
			return err
		}
		c.reportsRejected += st.TCP.Rejected + st.HTTP.Rejected
		c.sseDropped += st.SSE.DroppedRounds
		if m := st.Merge; m != nil {
			c.shipFailed += m.ShipFailed
			c.shipRetries += m.Retries
			c.mergeApplied += m.Frames
			c.mergeDuplicates += m.Duplicates
			c.mergeRejected += m.Rejected
		}
	}
	res.failed += int(c.shipFailed + c.mergeRejected - before)
	return nil
}

func cloneBatches(bufs [][]byte) [][]byte {
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = slices.Clone(b)
	}
	return out
}

// roundSend is one round's batches as the generator saw them.
type roundSend struct {
	start              time.Time
	batchMS, lateMS    []float64
	accepted, rejected int
}

func (r *roundSend) add(o roundSend) {
	r.batchMS = append(r.batchMS, o.batchMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.accepted += o.accepted
	r.rejected += o.rejected
}

// closedLoop sends each connection's batches back to back: the next batch
// goes when the previous one is acked, so the generator's lateness is the
// gap between an ack and the next send.
func closedLoop(dep *deployment, plan []span, bufs [][]byte) (roundSend, error) {
	out := roundSend{start: time.Now()}
	per := make([]roundSend, len(dep.data))
	errs := make([]error, len(dep.data))
	var wg sync.WaitGroup
	for c, s := range dep.data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &per[c]
			prev := out.start
			for i, b := range plan {
				if b.conn != c {
					continue
				}
				t := time.Now()
				accepted, rejected, err := s.send(bufs[i], b.hi-b.lo)
				done := time.Now()
				if err != nil {
					errs[c] = err
					return
				}
				p.lateMS = append(p.lateMS, ms(t.Sub(prev)))
				p.batchMS = append(p.batchMS, ms(done.Sub(t)))
				p.accepted += accepted
				p.rejected += rejected
				prev = done
			}
		}()
	}
	wg.Wait()
	for c := range per {
		out.add(per[c])
	}
	return out, firstError(errs)
}

// openLoop sends batch i at start + i/rate whatever the daemon's state,
// handing it to whichever connection is free, and times each batch from
// that due time, so a stall is charged to every batch it delays. The
// dispatcher sleeps with nanosleep on a locked thread: the Go timer wakes
// up to a millisecond late, which would count as generator lateness.
func openLoop(dep *deployment, plan []span, bufs [][]byte, rate int) (roundSend, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := time.Second / time.Duration(rate)
	out := roundSend{start: time.Now()}
	due := func(i int) time.Time { return out.start.Add(time.Duration(i) * interval) }
	// Buffered for the whole round, so the schedule never waits on a
	// connection.
	next := make(chan int, len(plan))
	per := make([]roundSend, len(dep.data))
	errs := make([]error, len(dep.data))
	var wg sync.WaitGroup
	for c, s := range dep.data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &per[c]
			for i := range next {
				if errs[c] != nil {
					continue
				}
				accepted, rejected, err := s.send(bufs[i], plan[i].hi-plan[i].lo)
				if err != nil {
					errs[c] = err
					continue
				}
				p.batchMS = append(p.batchMS, ms(time.Since(due(i))))
				p.accepted += accepted
				p.rejected += rejected
			}
		}()
	}
	for i := range plan {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		out.lateMS = append(out.lateMS, ms(time.Since(d)))
		next <- i
	}
	close(next)
	wg.Wait()
	for c := range per {
		out.add(per[c])
	}
	return out, firstError(errs)
}

// closeAll closes the round on every closer at once and returns their
// response bodies once all have answered.
func closeAll(closers []*api) ([][]byte, error) {
	bodies := make([][]byte, len(closers))
	errs := make([]error, len(closers))
	var wg sync.WaitGroup
	for i, a := range closers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], errs[i] = a.closeRound()
		}()
	}
	wg.Wait()
	return bodies, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSim runs rappor-sim: on each instance, a fresh cohort stream in this
// process and one Collect per round. The benchmark process is the system
// under test.
func runSim(cfg *config, w *workload, in *inputs) (*runResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	res := &runResult{}
	users := in.users()
	for inst := 0; inst < cfg.instances(); inst++ {
		// Every instance starts from the same heap; otherwise the last
		// one's garbage is collected during this one, wherever the pacer
		// happens to fall.
		runtime.GC()
		t0 := time.Now()
		st, err := server.NewStream(in.proto, server.WithCohort(users, cfg.seed))
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		err = simInstance(cfg, w, in, st, inst, res)
		st.Close()
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", inst, err)
		}
	}
	var err error
	res.rssMB, err = peakRSSMB("self")
	return res, err
}

func simInstance(cfg *config, w *workload, in *inputs, st *server.Stream, inst int, res *runResult) error {
	users := in.users()
	var cpu0 time.Duration
	prev := time.Now()
	for r := 0; r < cfg.rounds(w); r++ {
		vals := in.values(r)
		if r == 1 {
			cpu0 = selfCPUTime()
		}
		t0 := time.Now()
		pub, err := st.Collect(vals)
		done := time.Now()
		res.attempted += users
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if pub.Round != r || pub.Reports != users {
			res.problem("instance %d round %d: published round %d with %d reports, want %d", inst, r, pub.Round, pub.Reports, users)
		}
		res.published(inst, r, pub.Raw)
		if r > 0 {
			res.timed += done.Sub(t0)
			res.reports += pub.Reports
			res.batchMS = append(res.batchMS, ms(done.Sub(t0)))
			res.closeMS = append(res.closeMS, ms(done.Sub(t0)))
			res.lateMS = append(res.lateMS, ms(t0.Sub(prev)))
		}
		prev = done
	}
	res.cpu += selfCPUTime() - cpu0
	return nil
}
