package longitudinal

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
)

// The server side of every protocol in this repository is a support-count
// vector plus a closed-form estimate (Algorithm 2 with Eq. (3)). Tally is
// that round state, written once and embedded in every aggregator; a
// ColumnarTallier is the one contract that moves a payload's bits into
// it. Payloads are tallied in place — views over the payload bytes, no
// intermediate report — so steady-state wire ingestion performs zero
// allocations per report. The boxed Client.Report/Aggregator.Add pair is
// the in-memory reference the wire path must agree with.

// Tally is an aggregator's open-round state: integer support counts plus
// the number of reports behind them. EndRound estimates from these two
// alone, so exporting them, persisting or shipping them, and adding them
// back is lossless — a restored or merged round ends bit-identically to
// the uninterrupted one. Everything else an aggregator holds (per-user
// hash caches, lookup tables) is a pure function of enrollment metadata
// and rebuilds lazily.
type Tally struct {
	Counts []int64
	N      int
}

// SnapshotTallier is an Aggregator whose open-round tallies can be
// exported and re-imported exactly — what server.Stream.Snapshot writes
// for crash recovery and what a collector-tree leaf ships to its root
// (integer adds commute, so the tree's estimates match a single-node run
// exactly). Every aggregator in this repository implements it by
// embedding Tally; the wirecontract linter pins the assertion for each
// registered family.
type SnapshotTallier interface {
	// ExportTally appends the aggregator's current-round support counts to
	// dst and returns the extended slice plus the round's report count n.
	// The aggregator's state is unchanged.
	ExportTally(dst []int64) ([]int64, int)
	// ImportTally adds counts and n into the aggregator's current round.
	// counts must have exactly the aggregator's tally length (the exported
	// length); a mismatch imports nothing and returns an error. counts is
	// not retained or mutated.
	ImportTally(counts []int64, n int) error
}

// Snapshot-contract assertions (wirecontract): every family's aggregator
// must stay export/import-capable or snapshot/restore and the collector
// tree silently lose it.
var (
	_ SnapshotTallier = (*chainUEAggregator)(nil)
	_ SnapshotTallier = (*lgrrAggregator)(nil)
	_ SnapshotTallier = (*dBitAggregator)(nil)
)

// ExportTally implements SnapshotTallier.
func (t *Tally) ExportTally(dst []int64) ([]int64, int) {
	return append(dst, t.Counts...), t.N
}

// ImportTally implements SnapshotTallier.
func (t *Tally) ImportTally(counts []int64, n int) error {
	if len(counts) != len(t.Counts) {
		return fmt.Errorf("longitudinal: import has %d counts, aggregator tallies %d", len(counts), len(t.Counts))
	}
	if n < 0 {
		return fmt.Errorf("longitudinal: import has negative report count %d", n)
	}
	for i, c := range counts {
		t.Counts[i] += c
	}
	t.N += n
	return nil
}

// Absorb moves o's round into t — adding its counts and zeroing o — which
// is the whole round-state transfer of every MergeableAggregator.Merge.
// o must have t's tally length.
func (t *Tally) Absorb(o *Tally) {
	for i, c := range o.Counts {
		t.Counts[i] += c
	}
	t.N += o.N
	o.Reset()
}

// Reset zeroes the round; every EndRound runs it after estimating.
func (t *Tally) Reset() {
	clear(t.Counts)
	t.N = 0
}

// ColumnarTallier tallies one protocol's steady-state payloads straight
// into its aggregators. Payloads are fixed-size, so a batch can pack them
// in one contiguous column (ColumnarBatch) and tally cell by cell.
type ColumnarTallier interface {
	// PayloadStride returns the exact steady-state payload size in bytes.
	PayloadStride() int
	// TallyCell adds the report carried by cell to agg's current-round
	// tallies for the identified user. The caller guarantees
	// len(cell) == PayloadStride() (TallyPayload checks it for loose
	// payloads); data-dependent checks — value range, trailing bits, the
	// shape of the enrollment reg — are the tallier's. agg must come from
	// the same protocol (NewAggregator or a Fork of it). A non-nil error
	// means nothing was tallied; TallyCell must never panic on hostile
	// payload or registration bytes.
	TallyCell(agg Aggregator, userID int, cell []byte, reg Registration) error
}

// TallyProtocol is a Protocol whose payloads can be tallied in place —
// the contract server.Stream requires. Every protocol in this repository
// implements it.
type TallyProtocol interface {
	Protocol
	// WireTallier returns the tallier for this protocol's steady-state
	// payloads.
	WireTallier() ColumnarTallier
}

// TallyPayload tallies one loose payload — one not framed by a columnar
// batch — through ct: the exact-length check, then TallyCell.
//
//loloha:noalloc
func TallyPayload(ct ColumnarTallier, agg Aggregator, userID int, payload []byte, reg Registration) error {
	if stride := ct.PayloadStride(); len(payload) != stride {
		return fmt.Errorf("longitudinal: payload is %d bytes, protocol takes %d", len(payload), stride)
	}
	return ct.TallyCell(agg, userID, payload, reg)
}

// ---------------------------------------------------------------------------
// Chained-UE tallier.

// WireTallier implements TallyProtocol.
func (c *ChainUE) WireTallier() ColumnarTallier { return ueWireTallier{k: c.k} }

type ueWireTallier struct{ k int }

// PayloadStride implements ColumnarTallier.
//
//loloha:noalloc
func (t ueWireTallier) PayloadStride() int { return freqoracle.UEPayloadBytes(t.k) }

// TallyCell implements ColumnarTallier: each set payload bit bumps one
// support count straight from the payload bytes, after the trailing-bit
// check.
//
//loloha:noalloc
func (t ueWireTallier) TallyCell(agg Aggregator, _ int, cell []byte, _ Registration) error {
	a, ok := agg.(*chainUEAggregator)
	if !ok || a.proto.k != t.k {
		return fmt.Errorf("longitudinal: chained-UE tallier cannot tally into %T", agg)
	}
	if err := freqoracle.CheckUEPayload(cell, t.k); err != nil {
		return err
	}
	freqoracle.AccumulateUEPayload(cell, t.k, a.Counts)
	a.N++
	return nil
}

// ---------------------------------------------------------------------------
// L-GRR tallier.

// WireTallier implements TallyProtocol.
func (m *LGRR) WireTallier() ColumnarTallier { return grrWireTallier{k: m.k} }

type grrWireTallier struct{ k int }

// PayloadStride implements ColumnarTallier.
//
//loloha:noalloc
func (t grrWireTallier) PayloadStride() int { return freqoracle.GRRPayloadBytes(t.k) }

// TallyCell implements ColumnarTallier: parse the scalar value (with its
// range check) and bump its count.
//
//loloha:noalloc
func (t grrWireTallier) TallyCell(agg Aggregator, _ int, cell []byte, _ Registration) error {
	a, ok := agg.(*lgrrAggregator)
	if !ok || a.proto.k != t.k {
		return fmt.Errorf("longitudinal: L-GRR tallier cannot tally into %T", agg)
	}
	x, err := freqoracle.ParseGRRPayload(cell, t.k)
	if err != nil {
		return err
	}
	a.Counts[x]++
	a.N++
	return nil
}

// ---------------------------------------------------------------------------
// dBitFlipPM tallier.

// WireTallier implements TallyProtocol.
func (m *DBitFlipPM) WireTallier() ColumnarTallier { return dbitWireTallier{proto: m} }

type dbitWireTallier struct{ proto *DBitFlipPM }

// PayloadStride implements ColumnarTallier.
//
//loloha:noalloc
func (t dbitWireTallier) PayloadStride() int { return (t.proto.d + 7) / 8 }

// TallyCell implements ColumnarTallier: each set payload bit bumps the
// count of the user's enrolled sampled bucket at that slot. The
// enrollment comes off the wire, so its shape is checked before anything
// is tallied: exactly d sampled buckets, each in [0,b).
//
//loloha:noalloc
func (t dbitWireTallier) TallyCell(agg Aggregator, _ int, cell []byte, reg Registration) error {
	a, ok := agg.(*dBitAggregator)
	if !ok || a.proto != t.proto {
		return fmt.Errorf("longitudinal: dBitFlipPM tallier cannot tally into %T", agg)
	}
	if len(reg.Sampled) != t.proto.d {
		return fmt.Errorf("longitudinal: user enrolled with %d sampled buckets, protocol samples %d",
			len(reg.Sampled), t.proto.d)
	}
	for _, j := range reg.Sampled {
		if uint(j) >= uint(t.proto.b) {
			return fmt.Errorf("longitudinal: enrolled bucket %d outside [0,%d)", j, t.proto.b)
		}
	}
	for l, j := range reg.Sampled {
		if cell[l/8]>>(uint(l)%8)&1 == 1 {
			a.Counts[j]++
		}
	}
	a.N++
	return nil
}
