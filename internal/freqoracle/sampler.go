package freqoracle

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// ReportSampler draws one UE-family sanitization round: every position of a
// k-bit vector flips to one with a base probability q, except a (typically
// small) set of "one" positions — the memoized/encoded support — that flip
// with probability p >= q. One-shot unary encoding is the instance with
// ones = {v}; the chained-UE IRR step is the instance whose ones are the
// memoized PRR one-positions; dBitFlipPM is the instance over the d sampled
// slots with at most one "one".
//
// # The canonical randomness contract
//
// A round is a deterministic function of (rb, ones), where rb is the
// caller's per-round 64-bit anchor. Two counter-addressable word streams
// are derived from it:
//
//	base(j) = StreamWord(Derive(rb, 0), j)   j = 0, 1, 2, ...
//	up(j)   = StreamWord(Derive(rb, 1), j)
//
// Base flips are drawn from base() as a geometric gap walk with parameter
// q (nextGap below): consecutive gaps give the positions where an
// independent Bernoulli(q) would fire, in O(k·q + 1) draws instead of k.
// Every "one" position i that did NOT base-fire then draws one word from
// up(), in ascending position order, and fires iff the word falls under
// the conditional upgrade threshold r = (p−q)/(1−q) — lifting its total
// flip probability to q + (1−q)·r = p while every other position stays at
// q. Because both streams are addressed by draw counter, not by generator
// state, any implementation that walks positions in ascending order
// consumes identical words and produces bit-identical output.
//
// The "one" positions arrive as a packed mask (bit i of ones[i>>6]), the
// form the memoized encodings are cached in. The production path runs in
// two passes: the gap walk sets every base flip, then each 64-position
// word's ones that did not base-fire (ones &^ base) draw their upgrades,
// lowest bit first. The two streams are independent, so finishing one
// before starting the other changes no word either consumes. A
// per-position reference loop consumes the identical streams; the two are
// proven bit-identical in tests
// (TestReportSamplerPathsBitIdentical). External protocols that want to
// interoperate with this wire format reuse ReportSampler (or reimplement
// this contract word for word).
type ReportSampler struct {
	k    int
	rT   uint64 // conditional upgrade threshold for (p-q)/(1-q)
	hasQ bool   // q > 0: the base pass exists
	// Gap sampler state: geoT holds the 256-entry fixed-point inverse CDF
	// of Geometric(q) — geoT[g] is the 64-bit threshold of Pr[G <= g] —
	// and geoLut jump-starts the inversion: for a raw word w,
	// geoLut[w>>(64-geoLutBits)] is a lower bound on the answer, and one
	// compare (rarely a short scan) finishes it. No floating point and no
	// data-dependent branching tree in the hot loop. For very sparse q
	// (below geoTableMinQ, where the table would cover too little mass)
	// invQ is set, the tables are the always-miss logGap stand-ins, and
	// gaps fall back to log inversion.
	geoT   []uint64
	geoLut []int16
	invQ   float64
	// Reference selects the per-position reference loop instead of the
	// word-parallel path. Output is identical either way; parity tests
	// set it to pin one path against the other.
	Reference bool
}

// geoTableMinQ is the base density below which the gap sampler uses log
// inversion instead of the threshold table: the 256-entry table covers
// (1-(1-q)^256) of the mass, so below ~1/128 the escape loop would run
// too often — and with so few flips per report the log cost is paid
// rarely anyway.
const geoTableMinQ = 1.0 / 128

// MaskWords returns the number of 64-bit words of a packed k-position
// mask: the layout of the "ones" argument of ReportSampler.AppendReport.
//
//loloha:noalloc
func MaskWords(k int) int { return (k + 63) / 64 }

// NewReportSampler returns a sampler over k positions with base flip
// probability q and "one"-position flip probability p. Requires k >= 1 and
// 0 <= q <= p <= 1 with q < 1.
func NewReportSampler(k int, p, q float64) (ReportSampler, error) {
	if k < 1 {
		return ReportSampler{}, fmt.Errorf("freqoracle: sampler needs k >= 1, got %d", k)
	}
	if !(q >= 0) || !(q < 1) || !(p >= q) || !(p <= 1) {
		return ReportSampler{}, fmt.Errorf("freqoracle: sampler needs 0 <= q <= p <= 1, q < 1, got p=%v q=%v", p, q)
	}
	s := ReportSampler{k: k}
	if q > 0 {
		s.hasQ = true
		if q >= geoTableMinQ {
			s.geoT = geoThresholds(q)
			s.geoLut = geoJumpTable(s.geoT)
		} else {
			s.geoT, s.geoLut = logGapT, logGapLut[:]
			s.invQ = randsrc.GeometricInv(q)
		}
	}
	s.rT = randsrc.BernoulliThreshold((p - q) / (1 - q))
	return s, nil
}

// geoThresholds builds the fixed-point inverse CDF of Geometric(q):
// entry g holds the 64-bit threshold of Pr[G <= g] = 1 - (1-q)^(g+1), so
// a raw uniform word w maps to the smallest g with w < geoT[g], and words
// beyond geoT[255] escape to g >= 256 (handled by the memoryless
// recursion in finishGap). Entry 256 is a zero sentinel, so the one-compare
// fast check in nextGap always defers an escaping word to finishGap.
// Quantization is the same 2^-64 granularity every Bernoulli threshold in
// this repository accepts.
func geoThresholds(q float64) []uint64 {
	t := make([]uint64, 257)
	tail := 1.0 // (1-q)^g
	for g := range t[:256] {
		tail *= 1 - q
		t[g] = randsrc.BernoulliThreshold(1 - tail)
	}
	return t
}

// geoLutBits is the width of the jump-table index: the top geoLutBits
// bits of a uniform word select its bucket. At 12 bits (an 8 KiB table)
// at most 256 of the 4096 equally likely buckets contain a CDF cell
// boundary, so apart from words that escape past the table's mass
// ((1-q)^256 of them) at least fifteen in sixteen find the lower bound is
// already the answer, and the finishing compare in nextGap is a
// well-predicted branch; with 8-bit buckets nearly every bucket of the
// dense head straddled a boundary and that compare went either way.
const geoLutBits = 12

// geoJumpTable indexes the inverse CDF by the top geoLutBits bits of a
// uniform word: entry b is the smallest g whose threshold exceeds the
// bucket's lowest word, i.e. a lower bound on the inversion answer for
// every w in the bucket.
func geoJumpTable(t []uint64) []int16 {
	lut := make([]int16, 1<<geoLutBits)
	g := 0
	for b := range lut {
		low := uint64(b) << (64 - geoLutBits)
		for g < 256 && t[g] <= low {
			g++
		}
		lut[b] = int16(g) // 256 means "past the table": escape
	}
	return lut
}

// logGapLut and logGapT stand in for the jump table and thresholds of a
// log-path sampler: every word looks up the zero sentinel, fails the fast
// check, and is inverted by finishGap.
var (
	logGapLut [1 << geoLutBits]int16
	logGapT   = []uint64{0}
)

// nextGap draws the next base-flip gap from the counter-addressed stream
// anchored at baseA, advancing *j by the words consumed. The jump table
// bounds the answer from below; when the word lies under that cell's
// threshold the bound is the answer, otherwise finishGap completes the
// inversion. wordsInto carries a hand-inlined copy of this fast check.
//
//loloha:noalloc
func (s *ReportSampler) nextGap(baseA uint64, j *int) int {
	w := randsrc.StreamWord(baseA, *j)
	*j++
	if g := int(s.geoLut[w>>(64-geoLutBits)]); w < s.geoT[g] {
		return g
	}
	return s.finishGap(baseA, w, j)
}

// finishGap inverts a gap word w that failed nextGap's one-compare check.
// Log path: log inversion via invQ. Table path: a short scan past the
// jump table's lower bound; a word past the table's mass adds 256 and
// draws the next word (Geometric is memoryless, so the recursion is exact).
//
//loloha:noalloc
func (s *ReportSampler) finishGap(baseA, w uint64, j *int) int {
	if s.invQ != 0 {
		return randsrc.GeometricWord(w, s.invQ)
	}
	t := s.geoT
	total := 0
	for {
		g := int(s.geoLut[w>>(64-geoLutBits)])
		for g < 256 && w >= t[g] {
			g++
		}
		if g < 256 {
			return total + g
		}
		total += 256
		w = randsrc.StreamWord(baseA, *j)
		*j++
	}
}

// K returns the number of positions per round.
//
//loloha:noalloc
func (s *ReportSampler) K() int { return s.k }

// PayloadBytes returns the wire size of one round: the k bits packed
// little-endian, as AppendUEReport lays them out.
//
//loloha:noalloc
func (s *ReportSampler) PayloadBytes() int { return UEPayloadBytes(s.k) }

// AppendReport appends one round's wire payload — PayloadBytes() bytes, the
// k sanitized bits packed little-endian — to dst and returns the extended
// buffer. rb anchors the round's randomness; ones is the packed mask of
// positions whose flip probability is p: nil for none, else MaskWords(k)
// words with every bit at or beyond k clear. When dst has capacity the call
// performs no allocations.
//
//loloha:noalloc
func (s *ReportSampler) AppendReport(dst []byte, rb uint64, ones []uint64) []byte {
	n := UEPayloadBytes(s.k)
	dst = append(dst, make([]byte, n)...)
	buf := dst[len(dst)-n:]
	if s.Reference {
		s.referenceInto(buf, rb, ones)
	} else {
		s.wordsInto(buf, rb, ones)
	}
	return dst
}

// wordsInto is the production path, in two passes. Pass one runs the gap
// walk over all k positions in a single loop and sets each base flip in
// buf. Pass two loads buf a 64-position word at a time, draws one upgrade
// word per "one" the base pass missed (ones &^ base), lowest bit first,
// ORs the winners in without a branch, and stores the word back. A round
// costs O(k·q + popcount(ones)) word draws plus k/64 word loads and
// stores: no per-position loop, no merge of two sorted position streams,
// and the only data-dependent loop exits are one per round (pass one) and
// one per word (pass two).
//
//loloha:noalloc
func (s *ReportSampler) wordsInto(buf []byte, rb uint64, ones []uint64) {
	if s.hasQ {
		baseA := randsrc.Derive(rb, 0)
		lut, t := s.geoLut, s.geoT
		j := 0
		for next := s.nextGap(baseA, &j); next < s.k; {
			buf[next>>3] |= 1 << (uint(next) & 7)
			// nextGap, with its fast check inlined.
			x := randsrc.StreamWord(baseA, j)
			j++
			if g := int(lut[x>>(64-geoLutBits)]); x < t[g] {
				next += 1 + g
			} else {
				next += 1 + s.finishGap(baseA, x, &j)
			}
		}
	}
	if ones == nil {
		return
	}
	upA := randsrc.Derive(rb, 1)
	uj := 0
	var tail [8]byte // the last word when k is not a multiple of 64
	for i, m := range ones {
		word := buf[i*8:]
		short := len(word) < 8
		if short {
			copy(tail[:], word)
			word = tail[:]
		}
		base := binary.LittleEndian.Uint64(word)
		up := uint64(0)
		for c := m &^ base; c != 0; c &= c - 1 {
			_, fire := bits.Sub64(randsrc.StreamWord(upA, uj), s.rT, 0)
			up |= c & -c & -fire
			uj++
		}
		binary.LittleEndian.PutUint64(word, base|up)
		if short {
			copy(buf[i*8:], word)
		}
	}
}

// referenceInto is the reference implementation: a per-position loop that
// consumes the canonical streams exactly as wordsInto does, kept as the
// obviously-correct form the parity tests pin the word path against.
//
//loloha:noalloc
func (s *ReportSampler) referenceInto(buf []byte, rb uint64, ones []uint64) {
	baseA := randsrc.Derive(rb, 0)
	upA := randsrc.Derive(rb, 1)
	j, uj := 0, 0
	next := s.k
	if s.hasQ {
		next = s.nextGap(baseA, &j)
	}
	for i := 0; i < s.k; i++ {
		if i == next {
			buf[i>>3] |= 1 << (uint(i) & 7)
			next += 1 + s.nextGap(baseA, &j)
			continue
		}
		if ones != nil && ones[i>>6]>>(uint(i)&63)&1 == 1 {
			if randsrc.BernoulliWord(randsrc.StreamWord(upA, uj), s.rT) {
				buf[i>>3] |= 1 << (uint(i) & 7)
			}
			uj++
		}
	}
}
