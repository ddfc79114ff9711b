package netserver

// Crash harness for the leaf outbox. A leaf closes rounds against a root
// while its outbox runs on durabletest.CrashFS, which crashes at a chosen
// I/O operation; the leaf then restarts on what a process kill or a
// power loss leaves and finishes the run. Every operation of a clean run
// is tried as the crash point, and (without -short) every operation of
// the restarted leaf's boot as a second one. Three things must hold:
//
//   - no sequence number is reused: the root never sees one number on
//     envelopes of two different rounds (it would drop the second as a
//     duplicate and lose its reports);
//   - no report is counted twice: each leaf round is applied at most
//     once, and the root's tally holds exactly the applied rounds;
//   - nothing is lost that the leaf had spooled: a round is owed once its
//     envelope reached the first ship attempt, which comes after the
//     spool write returns, and an owed round is applied exactly once. The
//     only round a crash may lose is the one it interrupted before that.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/durable"
	"github.com/loloha-ldp/loloha/internal/durable/durabletest"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

// crashRoot is the harness's root: a real stream with a real dedup
// ledger, plus the bookkeeping the assertions read.
type crashRoot struct {
	stream *server.Stream

	mu      sync.Mutex
	down    bool           // every Ship fails: the parent is unreachable
	seqs    map[uint64]int // sequence number → round of its first envelope
	applied map[int]int    // leaf round → times its tallies were applied
	owed    map[int]bool   // leaf round → reached a ship attempt
	reused  []string
}

func (r *crashRoot) setDown(down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down = down
}

// crashLink is one leaf incarnation's upstream. Once that incarnation's
// file system has crashed the process is gone, so it ships nothing.
type crashLink struct {
	root *crashRoot
	fs   *durabletest.CrashFS
}

func (l crashLink) Addr() string { return "crash-root" }
func (l crashLink) Close() error { return nil }

func (l crashLink) Ship(env []byte) (int, bool, error) {
	if l.fs.Crashed() {
		return 0, false, durabletest.ErrCrashed
	}
	r := l.root
	r.mu.Lock()
	defer r.mu.Unlock()
	h, err := persist.ParseEnvelopeHeader(env)
	if err != nil {
		return 0, false, err
	}
	r.owed[h.Round] = true
	if r.down {
		return 0, false, errors.New("root down")
	}
	if first, ok := r.seqs[h.Seq]; !ok {
		r.seqs[h.Seq] = h.Round
	} else if first != h.Round {
		r.reused = append(r.reused, fmt.Sprintf("seq %d: round %d, then round %d", h.Seq, first, h.Round))
	}
	e, err := persist.DecodeEnvelope(env)
	if err != nil {
		return 0, false, err
	}
	merged, dup, err := r.stream.MergeEnvelope(e)
	if err == nil && !dup {
		r.applied[h.Round]++
	}
	return merged, dup, err
}

// leafCrashRun is one harness run's outcome.
type leafCrashRun struct {
	bootOps []int // per incarnation: operations up to the end of its boot
	ops     []int // per incarnation: operations in total
}

const (
	crashRounds    = 6
	crashUsers     = 8
	crashOutboxDir = "/leaf/outbox"
)

// leafCrash crashes one leaf incarnation at its at-th operation and
// restarts the next one on what mode leaves.
type leafCrash struct {
	at   int
	mode durabletest.Mode
}

func (c leafCrash) String() string { return fmt.Sprintf("%s@%d", c.mode, c.at) }

// runLeafCrash runs one leaf through crashRounds rounds. crashes[i]
// crashes the i-th incarnation; the incarnations past the list run to
// the end. The
// root is unreachable for rounds 1 and 2, so envelopes wait in the outbox
// across crashes, and at round 3 the backlog ships before the round
// closes.
func runLeafCrash(t *testing.T, crashes []leafCrash) leafCrashRun {
	t.Helper()
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	root := &crashRoot{
		stream:  newTestStreamShards(t, proto, 1),
		seqs:    map[uint64]int{},
		applied: map[int]int{},
		owed:    map[int]bool{},
	}
	leafStream := newTestStreamShards(t, proto, 1)
	ref := newTestStreamShards(t, proto, 1)
	clients := treeClients(t, proto, ref, []*server.Stream{leafStream}, crashUsers)

	var run leafCrashRun
	fs := durabletest.New()
	var srv *Server
	// boot starts incarnations until one survives its boot (openOutbox
	// and, with the root up, the replay of its backlog).
	boot := func() {
		for {
			inc := len(run.ops)
			if inc < len(crashes) {
				fs.CrashAt(crashes[inc].at)
			}
			run.ops = append(run.ops, 0)
			run.bootOps = append(run.bootOps, 0)
			var err error
			srv, err = New(Config{
				Stream:       leafStream,
				Upstream:     crashLink{root: root, fs: fs},
				LeafID:       "leaf-a",
				OutboxDir:    crashOutboxDir,
				ShipRetryMin: 100 * time.Microsecond,
				ShipRetryMax: time.Millisecond,
				outboxFS:     fs,
			})
			if err == nil {
				root.mu.Lock()
				up := !root.down
				root.mu.Unlock()
				if up {
					settleOutbox(t, srv, fs)
				}
			} else if !fs.Crashed() {
				t.Fatalf("leaf boot: %v", err)
			}
			run.bootOps[inc] = fs.Ops()
			run.ops[inc] = fs.Ops()
			if !fs.Crashed() {
				return
			}
			if srv != nil {
				srv.Close()
			}
			fs = fs.Restart(crashes[inc].mode)
		}
	}
	// survive restarts the leaf if the step just taken crashed it.
	survive := func() bool {
		run.ops[len(run.ops)-1] = fs.Ops()
		if !fs.Crashed() {
			return false
		}
		srv.Close()
		fs = fs.Restart(crashes[len(run.ops)-1].mode)
		boot()
		return true
	}

	interrupted := map[int]bool{}
	boot()
	for r := 0; r < crashRounds; r++ {
		root.setDown(r == 1 || r == 2)
		if r == 3 {
			settleOutbox(t, srv, fs)
			survive()
		}
		ingestRound(t, proto, clients, r, leafStream)
		srv.closeRound()
		if survive() {
			interrupted[r] = true
		}
	}
	settleOutbox(t, srv, fs)
	if survive() {
		settleOutbox(t, srv, fs)
	}
	srv.Close()

	root.mu.Lock()
	defer root.mu.Unlock()
	if len(root.reused) > 0 {
		t.Fatalf("crashes %v: sequence numbers reused: %v", crashes, root.reused)
	}
	total := 0
	for r := 0; r < crashRounds; r++ {
		n := root.applied[r]
		switch {
		case n > 1:
			t.Fatalf("crashes %v: round %d applied %d times", crashes, r, n)
		case n == 0 && root.owed[r]:
			t.Fatalf("crashes %v: round %d was spooled but never applied", crashes, r)
		case n == 0 && !interrupted[r]:
			t.Fatalf("crashes %v: round %d lost without a crash interrupting its close", crashes, r)
		}
		total += n
	}
	if got := root.stream.Pending(); got != total*crashUsers {
		t.Fatalf("crashes %v: root tallied %d reports, want %d (%d rounds of %d)",
			crashes, got, total*crashUsers, total, crashUsers)
	}
	return run
}

// settleOutbox waits until srv's outbox is empty or its file system has
// crashed.
func settleOutbox(t *testing.T, srv *Server, fs *durabletest.CrashFS) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, _ := srv.outbox.stats(); n == 0 || fs.Crashed() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("outbox never drained")
		}
		srv.kickShipper()
		time.Sleep(50 * time.Microsecond)
	}
}

func TestOutboxCrashHarness(t *testing.T) {
	modes := []durabletest.Mode{durabletest.PowerLoss, durabletest.ProcessKill}
	clean := runLeafCrash(t, nil)
	if len(clean.ops) != 1 {
		t.Fatalf("clean run restarted: %+v", clean)
	}
	runs := 0
	for _, mode := range modes {
		for at := 1; at <= clean.ops[0]; at++ {
			first := leafCrash{at, mode}
			res := runLeafCrash(t, []leafCrash{first})
			runs++
			if testing.Short() {
				continue
			}
			// A second crash, of either kind, anywhere in the recovery.
			for _, mode2 := range modes {
				for again := 1; again <= res.bootOps[1]; again++ {
					runLeafCrash(t, []leafCrash{first, {again, mode2}})
					runs++
				}
			}
		}
	}
	t.Logf("%d crash schedules over the %d operations of a clean run", runs, clean.ops[0])
}

// TestOutboxLegacySeqFloor upgrades an outbox written by a release that
// kept a SEQ counter file: every envelope was acked, so SEQ is all that
// is left, and it must still set the floor.
func TestOutboxLegacySeqFloor(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "SEQ"), []byte("41"), 0o644); err != nil {
		t.Fatal(err)
	}
	ob, err := openOutbox(durable.OS, dir, "leaf-a")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ob.add(0, mustImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("first envelope after a legacy SEQ of 41 got seq %d, want 42", seq)
	}
	// The durable envelope retired the SEQ file, and stays behind as
	// the floor once acked.
	ob.ack(seq)
	if got := listDir(t, dir); len(got) != 1 || got[0] != envFileName(42, outboxAckedSuffix) {
		t.Fatalf("outbox holds %v, want only the acked witness of seq 42", got)
	}
	ob, err = openOutbox(durable.OS, dir, "leaf-a")
	if err != nil {
		t.Fatal(err)
	}
	if seq, _ := ob.add(1, mustImage(t)); seq != 43 {
		t.Fatalf("after the acked witness of 42 the next envelope got seq %d, want 43", seq)
	}
	if n, _ := ob.stats(); n != 1 {
		t.Fatalf("%d envelopes pending after boot and one add, want 1: the acked witness must not replay", n)
	}
}

// TestOutboxRemovesOrphanedTemps: a spool write cut short by a crash
// leaves its temp file, which the next boot removes without touching
// the envelopes.
func TestOutboxRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	ob, err := openOutbox(durable.OS, dir, "leaf-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ob.add(0, mustImage(t)); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, envFileName(2, outboxEnvSuffix)+".tmp-123")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ob, err = openOutbox(durable.OS, dir, "leaf-a")
	if err != nil {
		t.Fatal(err)
	}
	if got := listDir(t, dir); len(got) != 1 || got[0] != envFileName(1, outboxEnvSuffix) {
		t.Fatalf("outbox holds %v after boot, want only envelope 1", got)
	}
	if n, _ := ob.stats(); n != 1 {
		t.Fatalf("boot replayed %d envelopes, want 1", n)
	}
}

// mustImage is a small valid LSS1 image: one closed round's export.
func mustImage(t *testing.T) []byte {
	t.Helper()
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := newTestStreamShards(t, proto, 1).CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	image, err := persist.Append(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	return image
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	names, err := durable.OS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}
