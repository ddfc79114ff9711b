package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// buildParityFleet enrolls n deterministic clients into each of the given
// streams and returns one steady-state payload per user per round —
// generated once, so every stream tallies byte-identical reports.
func buildParityFleet(t *testing.T, proto longitudinal.Protocol, n, rounds, k int, streams ...*Stream) [][][]byte {
	t.Helper()
	payloads := make([][][]byte, rounds)
	for r := range payloads {
		payloads[r] = make([][]byte, n)
	}
	for u := 0; u < n; u++ {
		cl := proto.NewClient(randsrc.Derive(23, uint64(u)))
		reg := cl.WireRegistration()
		for _, s := range streams {
			if err := s.Enroll(u, reg); err != nil {
				t.Fatalf("enroll %d: %v", u, err)
			}
		}
		for r := 0; r < rounds; r++ {
			payloads[r][u] = cl.AppendReport(nil, (u*7+r)%k)
		}
	}
	return payloads
}

func sameRound(t *testing.T, label string, got, want RoundResult) {
	t.Helper()
	if got.Round != want.Round || got.Reports != want.Reports {
		t.Fatalf("%s: round %d/%d reports, want %d/%d", label, got.Round, got.Reports, want.Round, want.Reports)
	}
	for v := range want.Raw {
		if got.Raw[v] != want.Raw[v] || got.Estimates[v] != want.Estimates[v] {
			t.Fatalf("%s: estimate %d = %v/%v, want %v/%v",
				label, v, got.Raw[v], got.Estimates[v], want.Raw[v], want.Estimates[v])
		}
	}
}

// TestSnapshotRestoreParity pins the crash-recovery contract for every
// registered family: ingest half a round, snapshot (the kill point),
// restore — onto the same shard count and onto a different one — ingest
// the rest, and the closed round is bit-identical to an uninterrupted
// stream that saw all reports.
func TestSnapshotRestoreParity(t *testing.T) {
	const k, n = 24, 90
	for _, family := range longitudinal.Families() {
		spec := columnarSpec(t, family, k)
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", family, shards), func(t *testing.T) {
				proto, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewStream(proto, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				live, err := NewStream(proto, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				payloads := buildParityFleet(t, proto, n, 1, k, ref, live)
				for u := 0; u < n; u++ {
					if err := ref.Ingest(u, payloads[0][u]); err != nil {
						t.Fatal(err)
					}
				}
				for u := 0; u < n/2; u++ {
					if err := live.Ingest(u, payloads[0][u]); err != nil {
						t.Fatal(err)
					}
				}

				var buf bytes.Buffer
				if err := live.Snapshot(&buf); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				want := ref.CloseRound()

				// Restore onto the original shard count and onto a different
				// one: shard assignment is a pure hash of the user ID, so
				// users re-partition deterministically either way.
				for _, restoreShards := range []int{shards, shards + 2} {
					restored, err := RestoreStream(bytes.NewReader(buf.Bytes()), proto, WithShards(restoreShards))
					if err != nil {
						t.Fatalf("RestoreStream(shards=%d): %v", restoreShards, err)
					}
					if restored.Enrolled() != n {
						t.Fatalf("restored %d enrolled users, want %d", restored.Enrolled(), n)
					}
					if restored.Pending() != n/2 {
						t.Fatalf("restored %d pending reports, want %d", restored.Pending(), n/2)
					}
					// A report already tallied before the snapshot stays a
					// duplicate after restore.
					if err := restored.Ingest(0, payloads[0][0]); err == nil ||
						!strings.Contains(err.Error(), "already reported") {
						t.Fatalf("duplicate after restore: err = %v", err)
					}
					for u := n / 2; u < n; u++ {
						if err := restored.Ingest(u, payloads[0][u]); err != nil {
							t.Fatal(err)
						}
					}
					sameRound(t, fmt.Sprintf("restore shards=%d", restoreShards), restored.CloseRound(), want)
				}
			})
		}
	}
}

// TestSnapshotRoundIndexContinues pins the history semantics across a
// restore: round indices continue from the snapshot's open round, and the
// pre-snapshot history is explicitly not retained.
func TestSnapshotRoundIndexContinues(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(proto, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	payloads := buildParityFleet(t, proto, 10, 3, 16, s)
	for r := 0; r < 2; r++ {
		for u := 0; u < 10; u++ {
			if err := s.Ingest(u, payloads[r][u]); err != nil {
				t.Fatal(err)
			}
		}
		if res := s.CloseRound(); res.Round != r {
			t.Fatalf("round %d published as %d", r, res.Round)
		}
	}
	for u := 0; u < 10; u++ {
		if err := s.Ingest(u, payloads[2][u]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStream(&buf, proto, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2 (the open round's index)", restored.Rounds())
	}
	if _, err := restored.Round(1); err == nil || !strings.Contains(err.Error(), "predates") {
		t.Fatalf("pre-snapshot round: err = %v, want a predates-the-snapshot rejection", err)
	}
	if res := restored.CloseRound(); res.Round != 2 || res.Reports != 10 {
		t.Fatalf("restored close = round %d with %d reports, want round 2 with 10", res.Round, res.Reports)
	}
	if got, err := restored.Round(2); err != nil || got.Reports != 10 {
		t.Fatalf("Round(2) = %+v, %v", got, err)
	}
}

// TestRestoreRejections pins the whole-snapshot rejection semantics.
func TestRestoreRejections(t *testing.T) {
	protoA, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	protoB, err := core.NewBinary(32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(protoA, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong spec", func(t *testing.T) {
		_, err := RestoreStream(bytes.NewReader(buf.Bytes()), protoB, WithShards(2))
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("corrupt image", func(t *testing.T) {
		b := append([]byte(nil), buf.Bytes()...)
		b[10] ^= 1
		if _, err := RestoreStream(bytes.NewReader(b), protoA); err == nil {
			t.Fatal("corrupt snapshot restored")
		}
	})
	t.Run("tally-only image", func(t *testing.T) {
		_, snap, err := s.CloseRoundExport()
		if err != nil {
			t.Fatal(err)
		}
		var tallyOnly bytes.Buffer
		if err := persist.Write(&tallyOnly, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreStream(&tallyOnly, protoA); err == nil ||
			!strings.Contains(err.Error(), "tally-only") {
			t.Fatalf("err = %v, want a tally-only rejection", err)
		}
	})
}

// TestMergeTreeParity pins the collector-tree contract for every
// registered family and shard count: K leaves each ingest a disjoint user
// partition, export their rounds, and a root that MergeRemotes the K
// snapshots publishes rounds bit-identical to a single stream that
// ingested everything — for multiple consecutive rounds, so the leaves'
// round reset is covered too.
func TestMergeTreeParity(t *testing.T) {
	const k, n, rounds = 24, 120, 2
	for _, family := range longitudinal.Families() {
		spec := columnarSpec(t, family, k)
		for _, shards := range []int{1, 4} {
			for _, leaves := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/leaves=%d", family, shards, leaves), func(t *testing.T) {
					proto, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					single, err := NewStream(proto, WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					root, err := NewStream(proto, WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					leaf := make([]*Stream, leaves)
					for i := range leaf {
						if leaf[i], err = NewStream(proto, WithShards(shards)); err != nil {
							t.Fatal(err)
						}
					}

					// Enroll each user at the single stream and at its
					// partition's leaf; payloads are generated once.
					payloads := make([][][]byte, rounds)
					for r := range payloads {
						payloads[r] = make([][]byte, n)
					}
					for u := 0; u < n; u++ {
						cl := proto.NewClient(randsrc.Derive(23, uint64(u)))
						reg := cl.WireRegistration()
						if err := single.Enroll(u, reg); err != nil {
							t.Fatal(err)
						}
						if err := leaf[u%leaves].Enroll(u, reg); err != nil {
							t.Fatal(err)
						}
						for r := 0; r < rounds; r++ {
							payloads[r][u] = cl.AppendReport(nil, (u*7+r)%k)
						}
					}

					for r := 0; r < rounds; r++ {
						for u := 0; u < n; u++ {
							if err := single.Ingest(u, payloads[r][u]); err != nil {
								t.Fatal(err)
							}
							if err := leaf[u%leaves].Ingest(u, payloads[r][u]); err != nil {
								t.Fatal(err)
							}
						}
						leafReports := 0
						for i := range leaf {
							res, snap, err := leaf[i].CloseRoundExport()
							if err != nil {
								t.Fatalf("leaf %d export: %v", i, err)
							}
							if res.Round != r {
								t.Fatalf("leaf %d published round %d, want %d", i, res.Round, r)
							}
							leafReports += res.Reports
							merged, err := root.MergeRemote(snap)
							if err != nil {
								t.Fatalf("root merge of leaf %d: %v", i, err)
							}
							if merged != res.Reports {
								t.Fatalf("leaf %d merged %d reports, leaf tallied %d", i, merged, res.Reports)
							}
						}
						want := single.CloseRound()
						if leafReports != want.Reports {
							t.Fatalf("round %d: leaves tallied %d reports, single %d", r, leafReports, want.Reports)
						}
						sameRound(t, fmt.Sprintf("round %d", r), root.CloseRound(), want)
					}
				})
			}
		}
	}
}

// TestMergeRemoteMismatch pins whole-snapshot rejection at the root.
func TestMergeRemoteMismatch(t *testing.T) {
	protoA, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	protoB, err := core.NewBinary(32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := NewStream(protoB, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewStream(protoA, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := leaf.CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.MergeRemote(snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	if root.Pending() != 0 {
		t.Fatalf("%d reports merged from a mismatched snapshot", root.Pending())
	}
}

// TestSnapshotExportIsNondestructive pins that Snapshot observes without
// consuming: the stream closes its round identically afterwards.
func TestSnapshotExportIsNondestructive(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewStream(proto, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(proto, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	payloads := buildParityFleet(t, proto, 40, 1, 16, a, b)
	for u := 0; u < 40; u++ {
		if err := a.Ingest(u, payloads[0][u]); err != nil {
			t.Fatal(err)
		}
		if err := b.Ingest(u, payloads[0][u]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sameRound(t, "post-snapshot close", a.CloseRound(), b.CloseRound())
}

// TestSnapshotDuringEnrollment takes snapshots while other goroutines
// enroll and report: the user table is built outside the round barrier
// from the slot prefix captured under it, so every image must still be
// canonical, hold each captured user exactly once, and agree with its own
// tallies (one reported flag per tallied report).
func TestSnapshotDuringEnrollment(t *testing.T) {
	const writers, perWriter = 2, 2000
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(proto, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				u := w*perWriter + i
				cl := proto.NewClient(randsrc.Derive(23, uint64(u)))
				if err := s.Enroll(u, cl.WireRegistration()); err != nil {
					done <- err
					return
				}
				if err := s.Ingest(u, cl.AppendReport(nil, u%16)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	check := func() int {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := persist.Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot taken during enrollment does not decode: %v", err)
		}
		users := 0
		for _, sh := range snap.Shards {
			reported := 0
			for _, u := range sh.Users {
				if u.Reported {
					reported++
				}
			}
			if reported != sh.Tallied {
				t.Fatalf("shard image has %d reported users but %d tallied reports", reported, sh.Tallied)
			}
			users += len(sh.Users)
		}
		return users
	}
	for finished, last := 0, 0; finished < writers; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished++
		default:
		}
		users := check()
		if users < last {
			t.Fatalf("snapshot lost users: %d after %d", users, last)
		}
		last = users
	}
	if got := check(); got != writers*perWriter {
		t.Fatalf("final snapshot holds %d users, want %d", got, writers*perWriter)
	}
}
