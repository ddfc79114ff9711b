package server

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
)

// Durability and the collector tree. A stream's open-round state is
// per-shard (counts, n) integer tallies plus the registration tables, all
// of which the persist codec serializes exactly — so a snapshot taken
// mid-round and restored later ends the round bit-identically to an
// uninterrupted run, and a root stream that applies the merge envelopes
// of K leaves (MergeEnvelope) estimates bit-identically to a single
// stream that ingested every report itself.

// ErrSnapshotMismatch reports a snapshot produced under a different
// protocol configuration than the stream's: its spec hash disagrees. The
// whole snapshot is rejected — restoring or merging tallies across
// protocol parameters would corrupt every estimate, exactly the
// whole-batch fault ErrColumnarMismatch guards on the ingestion path.
var ErrSnapshotMismatch = errors.New("snapshot does not match the stream's protocol")

// Snapshot writes the stream's full open-round state — every shard's
// tallies, registration table and reported bits, plus the open round's
// index — as one LSS1 image. It excludes all ingestion only while it
// copies the tallies and reported bits (the same barrier CloseRound
// takes); the user table is built, sorted, encoded and written after the
// locks are released, so neither the user count nor a slow disk stalls
// ingestion.
func (s *Stream) Snapshot(w io.Writer) error {
	snap, err := s.exportState()
	if err != nil {
		return err
	}
	return persist.Write(w, snap)
}

// exportState returns the stream's open-round state as a snapshot. The
// user tables are built and put in canonical order outside the round
// barrier, from the slot prefixes captureState took under it.
func (s *Stream) exportState() (*persist.Snapshot, error) {
	snap, tables, err := s.captureState()
	if err != nil {
		return nil, err
	}
	for i, t := range tables {
		users := make([]persist.User, len(t.ids))
		for slot, id := range t.ids {
			users[slot] = persist.User{ID: id, Reg: t.regs[slot], Reported: t.reported.Get(slot)}
		}
		// The codec demands ascending IDs (canonical form).
		sort.Slice(users, func(a, b int) bool { return users[a].ID < users[b].ID })
		snap.Shards[i].Users = users
	}
	sort.Slice(snap.Ledger, func(a, b int) bool { return snap.Ledger[a].Leaf < snap.Ledger[b].Leaf })
	return snap, nil
}

// userTable is one shard's user table as captured under the round
// barrier. Registrations never change after Enroll and slots are dense
// and append-only, so the ids and regs prefixes are never written again.
type userTable struct {
	ids      []int          // slot → user ID
	regs     []Registration // slot → registration
	reported *bitset.Bitset // a copy of the reported bits
}

// captureState copies the counts, report counts, reported bits, slot
// counts and ledger under the exclusive round barrier: O(k + users/64)
// per shard, with no per-user work.
func (s *Stream) captureState() (*persist.Snapshot, []userTable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &persist.Snapshot{
		SpecHash: s.specHash,
		Round:    s.baseRound + len(s.results),
		HasUsers: true,
		Shards:   make([]persist.Shard, len(s.shards)),
	}
	tables := make([]userTable, len(s.shards))
	for i, sh := range s.shards {
		dst := &snap.Shards[i]
		dst.Counts, dst.N = sh.agg.ExportTally(nil)
		dst.Tallied = sh.tallied
		n := len(sh.ids)
		tables[i] = userTable{ids: sh.ids[:n:n], regs: sh.regs[:n:n], reported: sh.reported.Clone()}
	}
	if len(s.ledger) > 0 {
		// The dedup ledger rides the same image as the tallies it
		// describes, so a restored root can never hold counts it does not
		// remember applying (or remember applies it does not hold).
		snap.HasLedger = true
		snap.Ledger = make([]persist.LedgerEntry, 0, len(s.ledger))
		for _, e := range s.ledger {
			snap.Ledger = append(snap.Ledger, e)
		}
	}
	return snap, tables, nil
}

// RestoreStream rebuilds a stream from a snapshot written by Snapshot.
// proto must be configured identically to the producing stream's protocol
// (the spec hashes must agree; ErrSnapshotMismatch otherwise), but opts
// need not match the original options: users re-partition onto the new
// shard count deterministically (shard assignment is a pure hash of the
// user ID), and all tallies land in shard 0, which is exact because
// CloseRound merges every shard before estimating. Rounds published
// before the snapshot are not retained: Rounds continues from the
// snapshot's round index and Round(t) errors for earlier t.
func RestoreStream(r io.Reader, proto longitudinal.Protocol, opts ...Option) (*Stream, error) {
	snap, err := persist.Read(r)
	if err != nil {
		return nil, err
	}
	s, err := NewStream(proto, opts...)
	if err != nil {
		return nil, err
	}
	if snap.SpecHash != s.specHash {
		return nil, fmt.Errorf("server: snapshot spec hash %#016x, stream has %#016x: %w",
			snap.SpecHash, s.specHash, ErrSnapshotMismatch)
	}
	if !snap.HasUsers {
		return nil, fmt.Errorf("server: tally-only snapshot cannot restore a stream (no registration tables)")
	}
	for si := range snap.Shards {
		src := &snap.Shards[si]
		for ui := range src.Users {
			u := &src.Users[ui]
			sh := s.shardOf(u.ID)
			if err := sh.enroll(u.ID, u.Reg); err != nil {
				return nil, fmt.Errorf("server: restoring user %d: %w", u.ID, err)
			}
			if u.Reported {
				sh.reported.Set(sh.slots[u.ID], true)
			}
		}
		if err := s.shards[0].agg.ImportTally(src.Counts, src.N); err != nil {
			return nil, fmt.Errorf("server: restoring shard %d tallies: %w", si, err)
		}
		s.shards[0].tallied += src.Tallied
	}
	if len(snap.Ledger) > 0 {
		s.ledger = make(map[string]persist.LedgerEntry, len(snap.Ledger))
		for _, e := range snap.Ledger {
			s.ledger[e.Leaf] = e
		}
	}
	s.baseRound = snap.Round
	return s, nil
}

// ResumeAfter makes round the stream's last closed round when the open
// round is not newer: the open round's pending tallies and reported bits
// are dropped, the round history is cleared, and the stream opens round+1
// with its enrolled users intact. A collector-tree leaf calls it at boot
// with the round of the newest envelope in its outbox: that envelope
// already carries the round's reports, and a snapshot taken before the
// round closed still holds them pending. It returns the number of pending
// reports dropped.
func (s *Stream) ResumeAfter(round int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseRound+len(s.results) > round {
		return 0
	}
	dropped := 0
	for _, sh := range s.shards {
		sh.agg.EndRound() // discards the round's tallies
		dropped += sh.tallied
		sh.tallied = 0
		sh.reported.Reset()
	}
	s.results = nil
	s.baseRound = round + 1
	return dropped
}

// importTallies adds snap's tallies into shard 0. The caller holds s.mu
// exclusively, so no round closes and no report tallies mid-merge.
func (s *Stream) importTallies(snap *persist.Snapshot) (int, error) {
	sh := s.shards[0]
	merged := 0
	for si := range snap.Shards {
		src := &snap.Shards[si]
		if err := sh.agg.ImportTally(src.Counts, src.N); err != nil {
			// The length check precedes any mutation, and every shard
			// section of one protocol has the same tally length, so a
			// failure here means nothing was imported.
			return 0, fmt.Errorf("server: merging shard %d: %w", si, err)
		}
		sh.tallied += src.Tallied
		merged += src.Tallied
	}
	return merged, nil
}

// MergeEnvelope applies one collector-tree merge envelope exactly once —
// the root half of exactly-once delivery. The per-leaf ledger records the
// highest envelope sequence number already applied; an envelope at or
// below that watermark is a retry of something the tallies already
// contain, so it is acknowledged as a duplicate without touching a count
// (and without even decoding would-be tallies — the netserver layer
// checks ShouldApply first). The ledger rides the stream's snapshot, so a
// restored root keeps refusing the duplicates its counts already absorbed.
//
// Returns the reports merged and whether the envelope was a duplicate.
func (s *Stream) MergeEnvelope(env *persist.Envelope) (int, bool, error) {
	if len(env.Leaf) == 0 || len(env.Leaf) > persist.MaxLeafName {
		return 0, false, fmt.Errorf("server: envelope leaf name length %d, want 1..%d",
			len(env.Leaf), persist.MaxLeafName)
	}
	if env.Snap.SpecHash != s.specHash {
		return 0, false, fmt.Errorf("server: snapshot spec hash %#016x, stream has %#016x: %w",
			env.Snap.SpecHash, s.specHash, ErrSnapshotMismatch)
	}
	// Exclusive: the ledger update and the tally import must be atomic
	// with respect to Snapshot's exportState, or an image could record the
	// envelope as applied while missing its counts (or vice versa).
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, seen := s.ledger[env.Leaf]
	if seen && env.Seq <= entry.Seq {
		entry.Dups++
		s.ledger[env.Leaf] = entry
		return 0, true, nil
	}
	merged, err := s.importTallies(env.Snap)
	if err != nil {
		return 0, false, err
	}
	entry.Leaf = env.Leaf
	entry.Seq = env.Seq
	entry.Round = env.Round
	entry.Reports += uint64(merged)
	if s.ledger == nil {
		s.ledger = make(map[string]persist.LedgerEntry)
	}
	s.ledger[env.Leaf] = entry
	return merged, false, nil
}

// ShouldApply reports whether an envelope with the given identity would
// merge (true) or be deduplicated (false). It lets the network layer skip
// decoding a duplicate's payload; the ledger re-check inside
// MergeEnvelope remains authoritative.
func (s *Stream) ShouldApply(leaf []byte, seq uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entry, seen := s.ledger[string(leaf)]
	return !seen || seq > entry.Seq
}

// RecordDuplicate bumps the duplicate counter for a leaf whose envelope
// was deduplicated on the ShouldApply fast path (without a MergeEnvelope
// call). Unknown leaves are ignored: a duplicate implies a prior apply.
func (s *Stream) RecordDuplicate(leaf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if entry, seen := s.ledger[string(leaf)]; seen {
		entry.Dups++
		s.ledger[string(leaf)] = entry
	}
}

// Ledger returns a copy of the stream's per-leaf applied-envelope
// watermarks in ascending leaf-name order; nil when the stream never
// merged an envelope.
func (s *Stream) Ledger() []persist.LedgerEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.ledger) == 0 {
		return nil
	}
	out := make([]persist.LedgerEntry, 0, len(s.ledger))
	for _, e := range s.ledger {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Leaf < out[b].Leaf })
	return out
}

// CloseRoundExport closes the current round exactly like CloseRound and
// additionally returns the round's merged tallies as a one-shard,
// tally-only snapshot — the leaf half of the collector tree: the leaf
// publishes its local RoundResult (its partition's estimates) and ships
// the snapshot, wrapped in a merge envelope, to the root, whose
// MergeEnvelope recovers the global counts. Every aggregator exports its
// tallies, so the error is always nil.
func (s *Stream) CloseRoundExport() (RoundResult, *persist.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	round := s.baseRound + len(s.results)
	s.mergeShardsLocked()
	snap := &persist.Snapshot{SpecHash: s.specHash, Round: round, Shards: make([]persist.Shard, 1)}
	snap.Shards[0].Counts, snap.Shards[0].N = s.merge.ExportTally(nil)
	res := s.closeRoundLocked()
	snap.Shards[0].Tallied = res.Reports
	return res, snap, nil
}
