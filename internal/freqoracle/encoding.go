package freqoracle

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/loloha-ldp/loloha/internal/bitset"
)

// Wire encodings for the one-shot reports. These exist so that the
// communication-cost column of Table 1 can be *measured* rather than only
// stated: benchmarks serialize reports and record bytes per user per round.

// valueBytes returns the number of bytes needed to carry one value of a
// domain of size k (⌈log₂k⌉ bits rounded up to whole bytes).
//
//loloha:noalloc
func valueBytes(k int) int {
	if k <= 1 {
		return 1
	}
	b := bits.Len(uint(k - 1)) // ceil(log2 k) for k>1
	return (b + 7) / 8
}

// AppendGRRReport appends the wire form of a GRR report over domain size k.
//
//loloha:noalloc
func AppendGRRReport(dst []byte, report, k int) []byte {
	n := valueBytes(k)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(report))
	return append(dst, buf[:n]...)
}

// DecodeGRRReport reads a GRR report over domain size k from src, returning
// the report and the remaining bytes.
//
//loloha:noalloc
func DecodeGRRReport(src []byte, k int) (int, []byte, error) {
	n := valueBytes(k)
	if len(src) < n {
		return 0, nil, fmt.Errorf("freqoracle: short GRR report: %d bytes, want %d", len(src), n)
	}
	var buf [8]byte
	copy(buf[:], src[:n])
	v := int(binary.LittleEndian.Uint64(buf[:]))
	if v >= k {
		return 0, nil, fmt.Errorf("freqoracle: GRR report %d outside [0,%d)", v, k)
	}
	return v, src[n:], nil
}

// AppendLHReport appends the wire form of an LH report: the 8-byte hash
// seed followed by the perturbed hash over [0..g).
//
//loloha:noalloc
func AppendLHReport(dst []byte, rep LHReport, g int) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], rep.Seed)
	dst = append(dst, buf[:]...)
	return AppendGRRReport(dst, rep.X, g)
}

// DecodeLHReport reads an LH report with reduced domain g from src.
//
//loloha:noalloc
func DecodeLHReport(src []byte, g int) (LHReport, []byte, error) {
	if len(src) < 8 {
		return LHReport{}, nil, fmt.Errorf("freqoracle: short LH report: %d bytes", len(src))
	}
	seed := binary.LittleEndian.Uint64(src[:8])
	x, rest, err := DecodeGRRReport(src[8:], g)
	if err != nil {
		return LHReport{}, nil, err
	}
	return LHReport{Seed: seed, X: x}, rest, nil
}

// AppendUEReport appends the wire form of a unary-encoding report: the k
// bits packed little-endian.
//
//loloha:noalloc
func AppendUEReport(dst []byte, rep *bitset.Bitset) []byte {
	nBytes := (rep.Len() + 7) / 8
	start := len(dst)
	for _, w := range rep.Words() {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], w)
		dst = append(dst, buf[:]...)
	}
	return dst[:start+nBytes]
}

// ---------------------------------------------------------------------------
// Allocation-free payload readers. The Decode* functions above materialize
// report values (a Bitset for UE); the readers below validate and consume a
// complete steady-state payload in place, so the server's tally-direct
// ingestion path (longitudinal.ColumnarTallier) performs zero allocations per
// report. Each reader is strict: the payload must be exactly one report,
// with no trailing bytes.

// GRRPayloadBytes returns the exact byte length of a GRR payload over a
// domain of size k.
//
//loloha:noalloc
func GRRPayloadBytes(k int) int { return valueBytes(k) }

// ParseGRRPayload reads a complete GRR payload over domain size k without
// allocating: the payload must be exactly GRRPayloadBytes(k) bytes and
// carry a value in [0..k).
//
//loloha:noalloc
func ParseGRRPayload(src []byte, k int) (int, error) {
	if n := valueBytes(k); len(src) != n {
		return 0, fmt.Errorf("freqoracle: GRR payload is %d bytes, want %d", len(src), n)
	}
	v, _, err := DecodeGRRReport(src, k)
	return v, err
}

// UEPayloadBytes returns the exact byte length of a k-bit UE payload.
//
//loloha:noalloc
func UEPayloadBytes(k int) int { return (k + 7) / 8 }

// CheckUEPayload validates a complete k-bit UE payload in place: exactly
// UEPayloadBytes(k) bytes, with every bit beyond k zero. It allocates only
// on the error path.
//
//loloha:noalloc
func CheckUEPayload(src []byte, k int) error {
	nBytes := UEPayloadBytes(k)
	if len(src) < nBytes {
		return fmt.Errorf("freqoracle: short UE report: %d bytes, want %d", len(src), nBytes)
	}
	if len(src) > nBytes {
		return fmt.Errorf("freqoracle: %d trailing bytes in UE payload", len(src)-nBytes)
	}
	if k%8 != 0 && src[nBytes-1]>>(uint(k)%8) != 0 {
		return fmt.Errorf("freqoracle: nonzero bits beyond length %d", k)
	}
	return nil
}

// UEPayloadWords loads a validated k-bit UE payload into dst as
// little-endian 64-bit words: bit i of the payload lands at bit i%64 of
// dst[i/64], the support-row layout of longitudinal.Tally.AddRow. dst must
// hold (k+63)/64 words; callers validate src with CheckUEPayload first.
//
//loloha:noalloc
func UEPayloadWords(dst []uint64, src []byte) {
	j := 0
	for ; j+8 <= len(src); j += 8 {
		dst[j/8] = binary.LittleEndian.Uint64(src[j:])
	}
	if j < len(src) {
		var w uint64
		for t := j; t < len(src); t++ {
			w |= uint64(src[t]) << (8 * uint(t-j))
		}
		dst[j/8] = w
	}
}

// DecodeUEReport reads a k-bit unary-encoding report from src.
func DecodeUEReport(src []byte, k int) (*bitset.Bitset, []byte, error) {
	nBytes := (k + 7) / 8
	if len(src) < nBytes {
		return nil, nil, fmt.Errorf("freqoracle: short UE report: %d bytes, want %d", len(src), nBytes)
	}
	words := make([]uint64, (k+63)/64)
	var buf [8]byte
	for i := range words {
		lo := i * 8
		hi := lo + 8
		if hi > nBytes {
			hi = nBytes
		}
		for j := range buf {
			buf[j] = 0
		}
		copy(buf[:], src[lo:hi])
		words[i] = binary.LittleEndian.Uint64(buf[:])
	}
	bs, err := bitset.FromWords(k, words)
	if err != nil {
		return nil, nil, err
	}
	return bs, src[nBytes:], nil
}
