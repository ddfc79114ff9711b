package freqoracle

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// Fuzz targets for the allocation-free payload readers, the LH decoder and
// the report sampler: arbitrary bytes must produce either a valid value or
// an error — never a panic, never an out-of-domain value — and the
// sampler's two paths must agree. `go test` exercises the seed corpus;
// `go test -fuzz` explores.

func FuzzDecodeLHReport(f *testing.F) {
	f.Add([]byte{}, 2)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0}, 16)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 300)
	f.Fuzz(func(t *testing.T, data []byte, gRaw int) {
		g := gRaw%1000 + 2
		if g < 2 {
			g = 2
		}
		rep, _, err := DecodeLHReport(data, g)
		if err != nil {
			return
		}
		if rep.X < 0 || rep.X >= g {
			t.Fatalf("decoded hash %d outside [0,%d)", rep.X, g)
		}
	})
}

func FuzzParseGRRPayload(f *testing.F) {
	f.Add([]byte{0x00}, 10)
	f.Add([]byte{0xFF, 0xFF}, 70000)
	f.Add([]byte{}, 2)
	f.Fuzz(func(t *testing.T, data []byte, kRaw int) {
		k := kRaw%100000 + 2
		if k < 2 {
			k = 2
		}
		v, err := ParseGRRPayload(data, k)
		if err != nil {
			return
		}
		if v < 0 || v >= k {
			t.Fatalf("parsed %d outside [0,%d)", v, k)
		}
		if len(data) != GRRPayloadBytes(k) {
			t.Fatalf("accepted %d payload bytes, want exactly %d", len(data), GRRPayloadBytes(k))
		}
	})
}

func FuzzCheckUEPayload(f *testing.F) {
	f.Add([]byte{0x0F}, 4)
	f.Add([]byte{0xFF, 0x01}, 9)
	f.Add([]byte{}, 64)
	f.Fuzz(func(t *testing.T, data []byte, kRaw int) {
		k := kRaw%4096 + 1
		if k < 1 {
			k = 1
		}
		if err := CheckUEPayload(data, k); err != nil {
			return
		}
		// An accepted payload must load within bounds and agree with the
		// boxed decoder on every word.
		words := make([]uint64, (k+63)/64)
		UEPayloadWords(words, data)
		bs, _, err := DecodeUEReport(data, k)
		if err != nil {
			t.Fatalf("CheckUEPayload accepted what DecodeUEReport rejects: %v", err)
		}
		if !slices.Equal(words, bs.Words()) {
			t.Fatalf("payload words %x, decoded %x", words, bs.Words())
		}
	})
}

func FuzzGRRParams(f *testing.F) {
	f.Add(1.0, 10)
	f.Add(math.Inf(1), 4)
	f.Add(math.NaN(), 4)
	f.Add(-3.0, 2)
	f.Fuzz(func(t *testing.T, eps float64, k int) {
		p, err := GRRParams(eps, k)
		if err != nil {
			return
		}
		if math.IsNaN(p.P) || math.IsNaN(p.Q) || !p.Valid() {
			t.Fatalf("GRRParams(%v, %d) accepted unusable params %+v", eps, k, p)
		}
	})
}

// FuzzReportSamplerParity: for any domain size, calibration, round anchor
// and "one" mask, the word-parallel sampler and the per-position reference
// loop emit the same payload, and no bit at or beyond k is ever set.
func FuzzReportSamplerParity(f *testing.F) {
	f.Add(1024, 0.765, 0.235, uint64(1), []byte{0xA5, 0x0F})
	f.Add(65, 0.5, 0.005, uint64(7), []byte{0xFF})
	f.Add(1, 1.0, 0.0, uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, kRaw int, p, q float64, rb uint64, maskBytes []byte) {
		k := kRaw%2048 + 1
		if k < 1 {
			k += 2048
		}
		s, err := NewReportSampler(k, p, q)
		if err != nil {
			return
		}
		// Spread the fuzzed bytes over the mask, cycling, then clear the
		// bits past k as the contract requires.
		var ones []uint64
		if len(maskBytes) > 0 {
			ones = make([]uint64, MaskWords(k))
			for i := range ones {
				for b := 0; b < 8; b++ {
					ones[i] |= uint64(maskBytes[(i*8+b)%len(maskBytes)]) << (8 * b)
				}
			}
			if k%64 != 0 {
				ones[len(ones)-1] &= 1<<(uint(k)%64) - 1
			}
		}
		ref := s
		ref.Reference = true
		got := s.AppendReport(nil, rb, ones)
		want := ref.AppendReport(nil, rb, ones)
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d p=%v q=%v rb=%d: word path %x != reference %x", k, p, q, rb, got, want)
		}
		if err := CheckUEPayload(got, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	})
}
