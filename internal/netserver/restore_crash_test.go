package netserver

// Crash harness for a leaf that restores its stream from its own
// snapshot at boot, as lolohad does with -snapshot-dir. The leaf
// snapshots each round just before closing it, so its newest image holds
// that round's reports pending; a crash after the round's envelope is
// spooled and before the next snapshot restores a round that is already
// closed and owed to the root. Every operation of a clean run is tried as
// the crash point, under a process kill and under a power loss, and three
// things must hold:
//
//   - no leaf round is applied twice, and no sequence number is reused;
//   - the root never holds more reports than the leaf accepted;
//   - every round that reached a ship attempt is applied.

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/durable"
	"github.com/loloha-ldp/loloha/internal/durable/durabletest"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

const (
	restoreSnapDir  = "/leaf"
	restoreSnapFile = "stream.lss1"
)

// restoredLeaf is one leaf incarnation: its stream and its server.
type restoredLeaf struct {
	stream *server.Stream
	srv    *Server
}

func (l restoredLeaf) close() {
	if l.srv != nil {
		l.srv.Close()
	}
	if l.stream != nil {
		l.stream.Close()
	}
}

// bootRestoredLeaf opens the leaf's stream the way lolohad's openStream
// does — the snapshot in restoreSnapDir when there is one, otherwise a
// fresh stream the clients enroll in — and starts the leaf server on it.
// A crash during the boot leaves the incarnation partly built; the caller
// checks fsys.Crashed().
func bootRestoredLeaf(t *testing.T, proto longitudinal.Protocol, clients []longitudinal.Client,
	root *crashRoot, fsys *durabletest.CrashFS) restoredLeaf {
	t.Helper()
	var leaf restoredLeaf
	if err := durable.RemoveTemps(fsys, restoreSnapDir); err != nil {
		return leaf
	}
	image, err := fsys.ReadFile(filepath.Join(restoreSnapDir, restoreSnapFile))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if leaf.stream, err = server.NewStream(proto, server.WithShards(1)); err != nil {
			t.Fatal(err)
		}
		for u, cl := range clients {
			if err := leaf.stream.Enroll(u, cl.WireRegistration()); err != nil {
				t.Fatal(err)
			}
		}
	case err != nil:
		return leaf
	default:
		if leaf.stream, err = server.RestoreStream(bytes.NewReader(image), proto, server.WithShards(1)); err != nil {
			t.Fatalf("restoring the leaf's snapshot: %v", err)
		}
	}
	leaf.srv, err = New(Config{
		Stream:       leaf.stream,
		Upstream:     crashLink{root: root, fs: fsys},
		LeafID:       "leaf-a",
		OutboxDir:    restoreSnapDir + "/outbox",
		ShipRetryMin: 100 * time.Microsecond,
		ShipRetryMax: time.Millisecond,
		outboxFS:     fsys,
	})
	if err != nil {
		if !fsys.Crashed() {
			t.Fatalf("leaf boot: %v", err)
		}
		return leaf
	}
	settleOutbox(t, leaf.srv, fsys)
	return leaf
}

// runLeafRestoreCrash runs a leaf through crashRounds rounds with its
// file system crashing at operation at (0: never) in the given mode, and
// returns the operations of the last incarnation: all of them, in a run
// without a crash.
func runLeafRestoreCrash(t *testing.T, at int, mode durabletest.Mode) int {
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
	clients := make([]longitudinal.Client, crashUsers)
	for u := range clients {
		clients[u] = proto.NewClient(randsrc.Derive(41, uint64(u)))
	}

	fsys := durabletest.New()
	fsys.CrashAt(at)
	var leaf restoredLeaf
	boot := func() {
		for {
			leaf = bootRestoredLeaf(t, proto, clients, root, fsys)
			if !fsys.Crashed() {
				return
			}
			leaf.close()
			fsys = fsys.Restart(mode)
		}
	}

	accepted := 0
	boot()
	for r := 0; r < crashRounds; r++ {
		for u, cl := range clients {
			// A restored round may already hold a user's report; the
			// stream rejects the second one, and it is not counted.
			if leaf.stream.Ingest(u, cl.AppendReport(nil, (u*7+r)%proto.K())) == nil {
				accepted++
			}
		}
		// The snapshot tick lands just before the close, so the image
		// holds the round's reports pending.
		if durable.WriteFile(fsys, restoreSnapDir, restoreSnapFile, leaf.stream.Snapshot) == nil {
			leaf.srv.closeRound()
			settleOutbox(t, leaf.srv, fsys)
		}
		if fsys.Crashed() {
			leaf.close()
			fsys = fsys.Restart(mode)
			boot()
		}
	}
	ops := fsys.Ops()
	leaf.close()

	root.mu.Lock()
	defer root.mu.Unlock()
	if len(root.reused) > 0 {
		t.Fatalf("crash at %d (%s): sequence numbers reused: %v", at, mode, root.reused)
	}
	for r, n := range root.applied {
		if n > 1 {
			t.Fatalf("crash at %d (%s): leaf round %d applied %d times", at, mode, r, n)
		}
	}
	for r := range root.owed {
		if root.applied[r] == 0 {
			t.Fatalf("crash at %d (%s): leaf round %d was spooled but never applied", at, mode, r)
		}
	}
	if got := root.stream.Pending(); got > accepted {
		t.Fatalf("crash at %d (%s): root tallied %d reports, the leaf accepted %d", at, mode, got, accepted)
	}
	return ops
}

func TestLeafRestoreCrashHarness(t *testing.T) {
	clean := runLeafRestoreCrash(t, 0, durabletest.PowerLoss)
	runs := 0
	for _, mode := range []durabletest.Mode{durabletest.PowerLoss, durabletest.ProcessKill} {
		for at := 1; at <= clean; at++ {
			runLeafRestoreCrash(t, at, mode)
			runs++
		}
	}
	t.Logf("%d crash schedules over the %d operations of a clean run", runs, clean)
}
