package longitudinal

import (
	"fmt"
	"math/bits"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
)

// The server side of every protocol in this repository is a support-count
// vector plus a closed-form estimate (Algorithm 2 with Eq. (3)). Tally is
// that round state and Round its lifecycle, both written once and
// embedded in every aggregator; a protocol's pure Estimate turns the
// counts into frequencies, and a ColumnarTallier is the one contract that
// moves a payload's bits into them. Payloads are tallied in place — views
// over the payload bytes, no intermediate report — so steady-state wire
// ingestion performs zero allocations per report.

// Tally is an aggregator's open-round state: integer support counts plus
// the number of reports behind them. EndRound estimates from these two
// alone, so exporting them, persisting or shipping them, and adding them
// back is lossless — a restored or merged round ends bit-identically to
// the uninterrupted one. Everything else an aggregator holds (per-user
// hash caches, lookup tables) is a pure function of enrollment metadata
// and rebuilds lazily.
//
// Reports reach the counts two ways: AddIndex bumps one count, and AddRow
// adds a whole 0/1 support row given as packed words. Rows go first into
// eight bit-planes that hold an 8-bit counter per position, added
// word-parallel with a ripple of carries; every 255 rows, and before
// anything reads the counts, the planes drain into the int64 counts. A
// row of k positions thus costs k/8 plane-word updates (k/64 words
// through eight planes) instead of up to k scattered increments.
type Tally struct {
	counts []int64
	// N is the number of reports tallied this round; the tallier that
	// adds a report's support increments it.
	N int
	// planes holds the rows not yet drained, word w of bit-plane p at
	// planes[planeBits*w+p]; pending counts them.
	planes  []uint64
	pending int
}

// planeBits is the width of the per-position counters in Tally.planes;
// they drain before they can overflow.
const (
	planeBits  = 8
	drainEvery = 1<<planeBits - 1
)

// NewTally returns the zero round of a k-position tally.
func NewTally(k int) Tally {
	return Tally{counts: make([]int64, k), planes: make([]uint64, planeBits*RowWords(k))}
}

// RowWords returns the number of 64-bit words in a k-position support
// row, the length AddRow takes.
//
//loloha:noalloc
func RowWords(k int) int { return (k + 63) / 64 }

// AddIndex adds one to the count at position i.
//
//loloha:noalloc
func (t *Tally) AddIndex(i int) { t.counts[i]++ }

// AddRow adds a 0/1 support row to the counts: bit i%64 of words[i/64]
// (little-endian within a word) adds one at position i. words must hold
// exactly RowWords(k) words; bits at positions k and beyond are ignored.
// words is not retained or mutated.
//
//loloha:noalloc
func (t *Tally) AddRow(words []uint64) {
	nw := len(t.planes) / planeBits
	if len(words) != nw {
		panic(fmt.Sprintf("longitudinal: row of %d words, tally takes %d", len(words), nw))
	}
	last := words[nw-1] & tailMask(len(t.counts))
	for w, carry := range words[:nw-1] {
		addWord((*[planeBits]uint64)(t.planes[planeBits*w:]), carry)
	}
	addWord((*[planeBits]uint64)(t.planes[planeBits*(nw-1):]), last)
	t.pending++
	if t.pending == drainEvery {
		t.drain()
	}
}

// addWord adds the 0/1 bits of carry into the counters that plane holds
// for one word of positions. The counters stay below 2^planeBits, so the
// carry dies inside the planes. Every plane is visited: on dense rows the
// carry of some position in the word survives to the upper planes, and a
// data-dependent early exit mispredicts more than it saves.
//
//loloha:noalloc
func addWord(plane *[planeBits]uint64, carry uint64) {
	for p := range plane {
		s := plane[p]
		plane[p] = s ^ carry
		carry &= s
	}
}

// tailMask returns the mask of the valid positions in the last word of a
// k-position row.
//
//loloha:noalloc
func tailMask(k int) uint64 {
	if k%64 == 0 {
		return ^uint64(0)
	}
	return 1<<(uint(k)%64) - 1
}

// drain adds the rows pending in the planes into the counts and zeroes
// the planes.
//
//loloha:noalloc
func (t *Tally) drain() {
	if t.pending == 0 {
		return
	}
	for w := 0; w*planeBits < len(t.planes); w++ {
		plane := t.planes[planeBits*w : planeBits*w+planeBits]
		counts := t.counts[64*w:]
		for p, x := range plane {
			for x != 0 {
				counts[bits.TrailingZeros64(x)] += 1 << p
				x &= x - 1
			}
		}
		clear(plane)
	}
	t.pending = 0
}

// Counts returns the round's support counts, with every added row
// drained into them. The slice is the tally's own: read it, do not keep
// it past the next add or Reset.
func (t *Tally) Counts() []int64 {
	t.drain()
	return t.counts
}

// ExportTally implements Aggregator.
func (t *Tally) ExportTally(dst []int64) ([]int64, int) {
	return append(dst, t.Counts()...), t.N
}

// ImportTally implements Aggregator.
func (t *Tally) ImportTally(counts []int64, n int) error {
	if len(counts) != len(t.counts) {
		return fmt.Errorf("longitudinal: import has %d counts, aggregator tallies %d", len(counts), len(t.counts))
	}
	if n < 0 {
		return fmt.Errorf("longitudinal: import has negative report count %d", n)
	}
	for i, c := range counts {
		t.counts[i] += c
	}
	t.N += n
	return nil
}

// Absorb moves o's round into t — adding its counts and zeroing o — which
// is the whole round-state transfer of Round.Merge.
// o must have t's tally length.
func (t *Tally) Absorb(o *Tally) {
	for i, c := range o.Counts() {
		t.counts[i] += c
	}
	t.N += o.N
	o.Reset()
}

// Reset zeroes the round; EndRound runs it after estimating.
func (t *Tally) Reset() {
	clear(t.counts)
	clear(t.planes)
	t.pending = 0
	t.N = 0
}

// Round is an Aggregator: a Tally plus the protocol that estimates from
// it. The round lifecycle — EndRound, EstimateDomain, Fork and Merge — is
// written once, here. A family whose tallier needs no scratch state
// returns a *Round from NewAggregator; one that does (a support-row
// buffer, per-user hash planes) embeds Round in its own aggregator type.
type Round struct {
	Tally
	proto Protocol
}

// NewRound returns the empty round of one of proto's aggregators, over a
// tally of k positions (the length of proto's Estimate input).
func NewRound(proto Protocol, k int) *Round {
	return &Round{Tally: NewTally(k), proto: proto}
}

func (r *Round) round() *Round { return r }

// EndRound implements Aggregator: the protocol's Estimate of the counts,
// then Reset.
func (r *Round) EndRound() []float64 {
	defer r.Reset()
	return r.proto.Estimate(r.Counts(), r.N)
}

// EstimateDomain implements Aggregator: the tally length.
func (r *Round) EstimateDomain() int { return len(r.counts) }

// Fork implements Aggregator.
func (r *Round) Fork() Aggregator { return r.proto.NewAggregator() }

// Merge implements Aggregator. other must be an aggregator of the same
// protocol value; anything else panics.
func (r *Round) Merge(other Aggregator) {
	o := other.round()
	if o.proto != r.proto {
		panic(fmt.Sprintf("longitudinal: %s aggregator cannot merge %T", r.proto.Name(), other))
	}
	r.Absorb(&o.Tally)
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

// WireTallier implements Protocol.
func (c *ChainUE) WireTallier() ColumnarTallier { return ueWireTallier{proto: c} }

type ueWireTallier struct{ proto *ChainUE }

// PayloadStride implements ColumnarTallier.
//
//loloha:noalloc
func (t ueWireTallier) PayloadStride() int { return freqoracle.UEPayloadBytes(t.proto.k) }

// TallyCell implements ColumnarTallier: after the trailing-bit check the
// payload bytes load as the words of one support row.
//
//loloha:noalloc
func (t ueWireTallier) TallyCell(agg Aggregator, _ int, cell []byte, _ Registration) error {
	a, ok := agg.(*chainUEAggregator)
	if !ok || a.proto != t.proto {
		return fmt.Errorf("longitudinal: chained-UE tallier cannot tally into %T", agg)
	}
	if err := freqoracle.CheckUEPayload(cell, t.proto.k); err != nil {
		return err
	}
	freqoracle.UEPayloadWords(a.row, cell)
	a.AddRow(a.row)
	a.N++
	return nil
}

// ---------------------------------------------------------------------------
// L-GRR tallier.

// WireTallier implements Protocol.
func (m *LGRR) WireTallier() ColumnarTallier { return grrWireTallier{proto: m} }

type grrWireTallier struct{ proto *LGRR }

// PayloadStride implements ColumnarTallier.
//
//loloha:noalloc
func (t grrWireTallier) PayloadStride() int { return freqoracle.GRRPayloadBytes(t.proto.k) }

// TallyCell implements ColumnarTallier: parse the scalar value (with its
// range check) and bump its count.
//
//loloha:noalloc
func (t grrWireTallier) TallyCell(agg Aggregator, _ int, cell []byte, _ Registration) error {
	a, ok := agg.(*Round)
	if !ok || a.proto != t.proto {
		return fmt.Errorf("longitudinal: L-GRR tallier cannot tally into %T", agg)
	}
	x, err := freqoracle.ParseGRRPayload(cell, t.proto.k)
	if err != nil {
		return err
	}
	a.AddIndex(x)
	a.N++
	return nil
}

// ---------------------------------------------------------------------------
// dBitFlipPM tallier.

// WireTallier implements Protocol.
func (m *DBitFlipPM) WireTallier() ColumnarTallier { return dbitWireTallier{proto: m} }

type dbitWireTallier struct{ proto *DBitFlipPM }

// PayloadStride implements ColumnarTallier.
//
//loloha:noalloc
func (t dbitWireTallier) PayloadStride() int { return (t.proto.d + 7) / 8 }

// TallyCell implements ColumnarTallier: each set payload bit bumps the
// count of the user's enrolled sampled bucket at that slot. Enrollment and
// payload come off the wire, so both are checked before anything is
// tallied: the enrollment has exactly d sampled buckets, each in [0,b),
// and the payload's padding bits past d are zero.
//
//loloha:noalloc
func (t dbitWireTallier) TallyCell(agg Aggregator, _ int, cell []byte, reg Registration) error {
	a, ok := agg.(*Round)
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
	if err := freqoracle.CheckUEPayload(cell, t.proto.d); err != nil {
		return err
	}
	for l, j := range reg.Sampled {
		if cell[l/8]>>(uint(l)%8)&1 == 1 {
			a.AddIndex(j)
		}
	}
	a.N++
	return nil
}
