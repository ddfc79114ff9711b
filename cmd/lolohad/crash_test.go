package main

// Crash harness for the root's snapshot writes. A root applies a leaf's
// envelopes and snapshots after every other one, with its snapshot
// directory on durabletest.CrashFS; every operation of a clean run is
// tried as the crash point, under a process kill and under a power loss.
// After each crash the root restores from what the crash left and the
// run finishes. The README allows a root crash to lose the envelopes it
// acked after its last durable snapshot, and nothing else:
//
//   - the restored ledger covers at least every envelope that a
//     completed snapshot write covered, and never one the root did not
//     apply;
//   - the restored tallies hold exactly the reports of the envelopes the
//     restored ledger names, so no report is counted twice;
//   - a re-ship of any of those envelopes is a duplicate;
//   - no temp file outlives the restart.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/loloha-ldp/loloha/internal/durable"
	"github.com/loloha-ldp/loloha/internal/durable/durabletest"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

const (
	crashRounds = 6
	crashUsers  = 12
)

// leafEnvelopes closes crashRounds rounds of a leaf and returns their
// envelopes, sequence numbers 1..crashRounds.
func leafEnvelopes(t *testing.T) [][]byte {
	t.Helper()
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := server.NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	clients := testClients(t, proto, leaf, crashUsers)
	envs := make([][]byte, crashRounds)
	for r := range envs {
		ingestRef(t, leaf, roundPayloads(clients, r, proto.K()), 0, crashUsers)
		res, snap, err := leaf.CloseRoundExport()
		if err != nil {
			t.Fatal(err)
		}
		envs[r], err = persist.AppendEnvelope(nil, &persist.Envelope{Leaf: "leaf-a", Round: res.Round, Seq: uint64(r + 1), Snap: snap})
		if err != nil {
			t.Fatal(err)
		}
	}
	return envs
}

// runRootCrash applies envs to a root whose snapshot directory crashes at
// operation at (0: never) in the given mode, and returns the operations
// the last root performed: all of them, in a run without a crash.
func runRootCrash(t *testing.T, envs [][]byte, at int, mode durabletest.Mode) int {
	t.Helper()
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions("/root-state")
	opts.mode = "root"
	fs := durabletest.New()
	fs.CrashAt(at)
	var d *daemon
	// open boots a root, again after any crash during the boot itself.
	open := func() {
		for {
			stream, err := openStream(fs, proto, opts, nil, io.Discard)
			if err == nil {
				d = &daemon{opts: opts, fs: fs, stream: stream}
				return
			}
			if !fs.Crashed() {
				t.Fatalf("crash at %d (%s): restore: %v", at, mode, err)
			}
			fs = fs.Restart(mode)
		}
	}
	apply := func(env []byte) bool {
		e, err := persist.DecodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		_, dup, err := d.stream.MergeEnvelope(e)
		if err != nil {
			t.Fatal(err)
		}
		return !dup
	}
	ledgerSeq := func() uint64 {
		if l := d.stream.Ledger(); len(l) == 1 {
			return l[0].Seq
		}
		return 0
	}

	open()
	held := map[uint64]int{0: 0} // ledger seq → reports the root then held
	var durableSeq uint64        // ledger seq of the last snapshot write that returned
	for r, env := range envs {
		seq := uint64(r + 1)
		if !apply(env) {
			t.Fatalf("crash at %d (%s): envelope %d deduplicated on first delivery", at, mode, seq)
		}
		held[seq] = d.stream.Pending()
		if r%2 == 1 {
			if err := d.writeSnapshot(); err == nil {
				durableSeq = seq
			}
		}
		if !fs.Crashed() {
			continue
		}
		d.stream.Close()
		fs = fs.Restart(mode)
		open()
		got := ledgerSeq()
		if got < durableSeq || got > seq {
			t.Fatalf("crash at %d (%s) after envelope %d: restored ledger at seq %d, last durable snapshot covered %d",
				at, mode, seq, got, durableSeq)
		}
		if p := d.stream.Pending(); p != held[got] {
			t.Fatalf("crash at %d (%s): restored root holds %d reports, its ledger (seq %d) says %d",
				at, mode, p, got, held[got])
		}
		for s := uint64(1); s <= got; s++ {
			if apply(envs[s-1]) {
				t.Fatalf("crash at %d (%s): re-shipped envelope %d applied twice", at, mode, s)
			}
		}
		names, err := fs.List(opts.snapDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if name != snapshotFile {
				t.Fatalf("crash at %d (%s): %s survived the restart", at, mode, name)
			}
		}
	}
	d.stream.Close()
	return fs.Ops()
}

func TestSnapshotCrashHarness(t *testing.T) {
	envs := leafEnvelopes(t)
	ops := runRootCrash(t, envs, 0, durabletest.PowerLoss)
	for _, mode := range []durabletest.Mode{durabletest.PowerLoss, durabletest.ProcessKill} {
		for at := 1; at <= ops; at++ {
			runRootCrash(t, envs, at, mode)
		}
	}
	t.Logf("%d crash points in each mode", ops)
}

// TestOpenStreamRemovesOrphanedTemps: a snapshot write cut short by a
// crash leaves its temp file, which the next start removes while it
// restores the image beside it.
func TestOpenStreamRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(dir)
	d := &daemon{opts: opts, fs: durable.OS}
	if d.stream, err = openStream(d.fs, proto, opts, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := d.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	d.stream.Close()
	orphan := filepath.Join(dir, snapshotFile+".tmp-123")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	stream, err := openStream(durable.OS, proto, opts, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stream.Close()
	names, err := durable.OS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{snapshotFile}) {
		t.Fatalf("snapshot dir holds %v after start, want only %s", names, snapshotFile)
	}
}
