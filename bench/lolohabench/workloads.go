package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// workload is one traffic mix. Every field is fixed; only -seed, -seconds
// and -smoke change what a run does.
type workload struct {
	name string
	spec longitudinal.ProtocolSpec
	// users is the cohort size, split evenly over leaves; batch is the
	// reports per batch. smokeUsers/smokeBatch replace them under -smoke.
	users, batch           int
	smokeUsers, smokeBatch int
	// leaves is the number of ingesting daemons (2 only in the tree); conns
	// the number of data connections the generator opens.
	leaves, conns int
	// procs is each daemon's GOMAXPROCS (rappor-sim: the benchmark's own).
	procs int
	// rate, when positive, makes the load an open loop at this many
	// requests per second; otherwise each connection sends its next batch
	// when the previous one is acked.
	rate int
	// roundsPerSec sizes a run: -seconds s means s·roundsPerSec timed
	// rounds, the rounds the commit that introduced the benchmark made in
	// s seconds. The work is fixed, so every run of a seed sends the same
	// reports and publishes the same estimates.
	roundsPerSec float64
	// checkEvery selects the rounds replayed bit for bit: every round whose
	// index is a multiple of it (rappor-sim replays a prefix instead).
	checkEvery int
	// deploy starts the daemons; nil for the in-process simulation.
	deploy func(cfg *config, w *workload, stateDir string) (*deployment, error)
	// tcp selects raw-frame TCP data connections instead of HTTP.
	tcp bool
}

var eps = struct{ inf, one float64 }{2, 1}

// workloads lists the benchmark's traffic mixes, in BENCHMARK.json's
// order; bench/README.md says what each should and should not move.
var workloads = []*workload{
	{
		// Tally-bound: BiLOLOHA scans k hash cells per report, over per-user
		// tables (about 20 MB) that do not fit in cache. Closed loop, 2 TCP
		// connections, LCB1 batches of 1,024.
		name:  "bilo-tcp-bulk",
		spec:  longitudinal.ProtocolSpec{Family: "BiLOLOHA", K: 1024, EpsInf: eps.inf, Eps1: eps.one},
		users: 20000, batch: 1024, smokeUsers: 512, smokeBatch: 128,
		leaves: 1, conns: 2, procs: 2, roundsPerSec: 12, checkEvery: 4,
		deploy: deploySingle, tcp: true,
	},
	{
		// Request-cost-bound: dBitFlipPM tallies one bucket per report, so
		// net/http and per-batch costs dominate; devices arrive on their own
		// schedule (open loop), 64 reports per HTTP columnar POST, 2
		// keep-alive connections. It bypasses the k-wide tally.
		name:  "dbit-http-open",
		spec:  longitudinal.ProtocolSpec{Family: "dBitFlipPM", K: 1024, B: 64, D: 4, EpsInf: eps.inf},
		users: 8192, batch: 64, smokeUsers: 512, smokeBatch: 64,
		leaves: 1, conns: 2, procs: 2, rate: openLoopRate, roundsPerSec: 38, checkEvery: 1,
		deploy: deploySingle,
	},
	{
		// Round-lifecycle-bound: a root and 2 durable leaves close about 500
		// rounds/s, so export, envelope, outbox fsync, ship, merge, root
		// close and snapshots dominate; k=64 state fits in cache.
		name:  "tree-durable",
		spec:  longitudinal.ProtocolSpec{Family: "BiLOLOHA", K: 64, EpsInf: eps.inf, Eps1: eps.one},
		users: 2048, batch: 1024, smokeUsers: 512, smokeBatch: 256,
		leaves: 2, conns: 2, procs: 1, roundsPerSec: 480, checkEvery: 64,
		deploy: deployTree,
	},
	{
		// The in-process library and paper-reproduction path: a cohort
		// Stream's Collect runs client generation and the UE tally through
		// ShardedCollector, with no sockets.
		name:  "rappor-sim",
		spec:  longitudinal.ProtocolSpec{Family: "RAPPOR", K: 1024, EpsInf: eps.inf, Eps1: eps.one},
		users: 10000, batch: 1024, smokeUsers: 512, smokeBatch: 128,
		leaves: 1, conns: 2, procs: 2, roundsPerSec: 14, checkEvery: 1,
	},
}

// openLoopRate is dbit-http-open's schedule in requests per second, fixed
// so later commits face the same load: about a quarter of the closed-loop
// capacity of 2 connections (about 21,000 requests/s on the 2-CPU host
// that introduced the benchmark). At half of it, queueing doubled the
// host's own run-to-run noise: the p90's spread reached half its median.
const openLoopRate = 5000

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) size(smoke bool) (users, batch int) {
	if smoke {
		return w.smokeUsers, w.smokeBatch
	}
	return w.users, w.batch
}

// deployment is one running set of daemons plus the benchmark's
// connections to them.
type deployment struct {
	daemons  []*daemon // stop order: leaves before their root
	publish  *api      // control connection of the daemon whose rounds are the result
	closers  []*api    // control connections that close a round, by leaf
	data     []sender  // data connections
	stateDir string
}

// controls returns one control connection per daemon.
func (d *deployment) controls() []*api {
	if len(d.closers) == 1 && d.closers[0] == d.publish {
		return d.closers
	}
	return append([]*api{d.publish}, d.closers...)
}

func (d *deployment) stop() {
	stopDaemons(d.daemons)
	for _, s := range d.data {
		s.close()
	}
	for _, a := range d.controls() {
		a.close()
	}
	if d.stateDir != "" {
		os.RemoveAll(d.stateDir)
	}
}

func specFlag(spec longitudinal.ProtocolSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a ProtocolSpec always marshals
	}
	return string(b)
}

// deploySingle starts one lolohad (with a TCP listener when the workload
// sends over TCP) and opens the workload's data connections to it.
func deploySingle(cfg *config, w *workload, _ string) (*deployment, error) {
	args := []string{"-spec", specFlag(w.spec), "-http", "127.0.0.1:0", "-drain", "1s"}
	if w.tcp {
		args = append(args, "-tcp", "127.0.0.1:0")
	}
	d, err := startDaemon(cfg.lolohad, "lolohad", w.procs, w.tcp, args...)
	if err != nil {
		return nil, err
	}
	dep := &deployment{daemons: []*daemon{d}, publish: newAPI(d.httpAddr, 1)}
	dep.closers = []*api{dep.publish}
	for c := 0; c < w.conns; c++ {
		if w.tcp {
			s, err := dialTCP(d.tcpAddr)
			if err != nil {
				dep.stop()
				return nil, err
			}
			dep.data = append(dep.data, s)
		} else {
			dep.data = append(dep.data, httpSender{newAPI(d.httpAddr, 1)})
		}
	}
	return dep, nil
}

// deployTree starts the collector tree: a root, then the leaves (which
// dial the root at startup), each with its own durable state directory.
func deployTree(cfg *config, w *workload, stateDir string) (*deployment, error) {
	spec := specFlag(w.spec)
	root, err := startDaemon(cfg.lolohad, "lolohad root", w.procs, true,
		"-spec", spec, "-mode", "root", "-http", "127.0.0.1:0", "-tcp", "127.0.0.1:0",
		"-snapshot-dir", filepath.Join(stateDir, "root"), "-snapshot-every", "1s",
		"-round-deadline", "10s", "-quorum", "2", "-expect-leaves", "2", "-drain", "1s")
	if err != nil {
		return nil, err
	}
	dep := &deployment{daemons: []*daemon{root}, publish: newAPI(root.httpAddr, 1), stateDir: stateDir}
	leaves := make([]*daemon, w.leaves)
	errs := make([]error, w.leaves)
	var wg sync.WaitGroup
	for l := range leaves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := "leaf-" + strconv.Itoa(l)
			leaves[l], errs[l] = startDaemon(cfg.lolohad, "lolohad "+id, w.procs, false,
				"-spec", spec, "-mode", "leaf", "-parent", root.tcpAddr, "-leaf-id", id,
				"-http", "127.0.0.1:0", "-snapshot-dir", filepath.Join(stateDir, id),
				"-snapshot-every", "1s", "-drain", "1s")
		}()
	}
	wg.Wait()
	for _, leaf := range leaves {
		if leaf != nil {
			dep.daemons = append([]*daemon{leaf}, dep.daemons...)
			dep.closers = append(dep.closers, newAPI(leaf.httpAddr, 1))
			dep.data = append(dep.data, httpSender{newAPI(leaf.httpAddr, 1)})
		}
	}
	if err := firstError(errs); err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// enroll registers every user over the data connections, in parallel:
// connection c enrolls the users of its leaf (tree) or its share of the
// users (one daemon).
func (d *deployment) enroll(in *inputs, leaves int) (attempted, rejected int, err error) {
	n := in.users()
	rej := make([]int, len(d.data))
	errs := make([]error, len(d.data))
	var wg sync.WaitGroup
	for c, s := range d.data {
		lo, hi := c*n/len(d.data), (c+1)*n/len(d.data)
		if leaves > 1 {
			lo, hi = c*n/leaves, (c+1)*n/leaves
		}
		regs := make([]longitudinal.Registration, 0, hi-lo)
		for u := lo; u < hi; u++ {
			regs = append(regs, in.clients[u].WireRegistration())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rej[c], errs[c] = s.enroll(lo, regs)
		}()
	}
	wg.Wait()
	for c := range d.data {
		rejected += rej[c]
		if errs[c] != nil && err == nil {
			err = fmt.Errorf("enrolling over connection %d: %w", c, errs[c])
		}
	}
	return n, rejected, err
}

// cpu sums CPU time over the daemons.
func (d *deployment) cpu() (time.Duration, error) {
	var total time.Duration
	for _, dm := range d.daemons {
		t, err := cpuTime(dm.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// rss sums peak RSS over the daemons.
func (d *deployment) rss() (float64, error) {
	total := 0.0
	for _, dm := range d.daemons {
		mb, err := peakRSSMB(strconv.Itoa(dm.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
