package longitudinal

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/freqoracle"
)

// Wire decoding for the steady-state payloads Client.AppendReport
// produces. A production deployment ships registration metadata (hash
// seeds, sampled bucket indices) once at enrollment and then streams
// these fixed-size payloads every round. Servers tally the payloads in
// place (ColumnarTallier); the decoders below spell out what a payload
// carries — the wire-format oracles the talliers are tested against.

// Registration carries a user's one-time enrollment metadata: everything a
// tallier needs beyond the per-round payload bytes.
type Registration struct {
	// HashSeed identifies a LOLOHA user's hash function (Algorithm 1,
	// "Send H").
	HashSeed uint64
	// Sampled lists a dBitFlipPM user's fixed sampled buckets.
	Sampled []int
}

// UEReport is a decoded chained-UE payload: the k sanitized bits.
type UEReport struct {
	Bits *bitset.Bitset
}

// GRRValueReport is a decoded L-GRR payload: one value in [0..K).
type GRRValueReport struct {
	X int
	K int
}

// DBitReport is a decoded dBitFlipPM payload: the user's fixed sampled
// buckets (registration metadata) and the memoized bit of each.
type DBitReport struct {
	Sampled []int
	Bits    []bool
}

// DecodeUEReport reads a k-bit unary-encoding round payload.
func DecodeUEReport(src []byte, k int) (UEReport, []byte, error) {
	bits, rest, err := freqoracle.DecodeUEReport(src, k)
	if err != nil {
		return UEReport{}, nil, err
	}
	return UEReport{Bits: bits}, rest, nil
}

// DecodeGRRValueReport reads a scalar GRR round payload over [0..k).
func DecodeGRRValueReport(src []byte, k int) (GRRValueReport, []byte, error) {
	x, rest, err := freqoracle.DecodeGRRReport(src, k)
	if err != nil {
		return GRRValueReport{}, nil, err
	}
	return GRRValueReport{X: x, K: k}, rest, nil
}

// DecodeDBitReport reads a d-bit dBitFlipPM round payload, whose padding
// bits past d must be zero. The sampled bucket indices are the user's
// registration metadata; the returned report aliases the given slice.
func DecodeDBitReport(src []byte, sampled []int) (DBitReport, []byte, error) {
	d := len(sampled)
	if d == 0 {
		return DBitReport{}, nil, fmt.Errorf("longitudinal: empty sampled set")
	}
	nBytes := (d + 7) / 8
	if len(src) < nBytes {
		return DBitReport{}, nil, fmt.Errorf("longitudinal: short dBit report: %d bytes, want %d",
			len(src), nBytes)
	}
	if err := freqoracle.CheckUEPayload(src[:nBytes], d); err != nil {
		return DBitReport{}, nil, err
	}
	bits := make([]bool, d)
	for i := range bits {
		bits[i] = src[i/8]>>(uint(i)%8)&1 == 1
	}
	return DBitReport{Sampled: sampled, Bits: bits}, src[nBytes:], nil
}
