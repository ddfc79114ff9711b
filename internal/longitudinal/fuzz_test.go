package longitudinal

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// Fuzz targets for the wire decoders: arbitrary bytes must produce either
// a valid report or an error — never a panic, never an out-of-domain
// report. `go test` exercises the seed corpus; `go test -fuzz` explores.

// FuzzParseSpec feeds arbitrary bytes through the strict JSON spec parser
// and, when a spec parses, through Build: malformed JSON, unknown fields
// and out-of-range parameters must all surface as errors, never panics,
// and a successful build must round-trip its spec.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"family":"LOLOHA","k":100,"eps_inf":1.2,"eps1":0.5}`))
	f.Add([]byte(`{"family":"dBitFlipPM","k":100,"b":10,"d":4,"eps_inf":2}`))
	f.Add([]byte(`{"family":"L-GRR","k":0,"eps_inf":-1,"eps1":9}`))
	f.Add([]byte(`{"family":"nope"}`))
	f.Add([]byte(`[{"family":"L-OSUE"}]`))
	f.Add([]byte(`{"family":"RAPPOR","k":5,`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		p, err := s.Build()
		if err != nil {
			return
		}
		got := p.Spec()
		if got.Family == "" || got.K != s.K {
			t.Fatalf("built protocol reports spec %+v from %+v", got, s)
		}
	})
}

// FuzzParseSpecs is the list form of FuzzParseSpec.
func FuzzParseSpecs(f *testing.F) {
	f.Add([]byte(`[{"family":"LOLOHA","k":10,"eps_inf":1,"eps1":0.4}]`))
	f.Add([]byte(`{"family":"BiLOLOHA","k":10,"eps_inf":1,"eps1":0.4}`))
	f.Add([]byte(`[[]]`))
	f.Add([]byte(` [ `))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseSpecs(data)
		if err != nil {
			return
		}
		for _, s := range specs {
			if _, err := s.Build(); err != nil {
				continue
			}
		}
	})
}

// FuzzSpecBuild drives Build with parameters JSON cannot even express
// (NaN and ±Inf budgets reach this API from Go callers, not the wire):
// every out-of-range K/G/B/D and non-finite epsilon must error, never
// panic, for every registered family.
func FuzzSpecBuild(f *testing.F) {
	f.Add("LOLOHA", 100, 0, 0, 0, 1.2, 0.5)
	f.Add("LOLOHA", 100, 2, 0, 0, math.Inf(1), 0.5)
	f.Add("BiLOLOHA", 50, 0, 0, 0, math.NaN(), 0.2)
	f.Add("L-GRR", 10, 0, 0, 0, 1.0, math.Inf(1))
	f.Add("L-OSUE", 10, 0, 0, 0, math.Inf(-1), math.NaN())
	f.Add("dBitFlipPM", 100, 0, 10, 4, math.Inf(1), 0.0)
	f.Add("RAPPOR", -5, 0, 0, 0, 2.0, 1.0)
	f.Fuzz(func(t *testing.T, family string, k, g, b, d int, epsInf, eps1 float64) {
		s := ProtocolSpec{Family: family, K: k, G: g, B: b, D: d, EpsInf: epsInf, Eps1: eps1}
		p, err := s.Build()
		if err != nil {
			return
		}
		spent := p.NewClient(1).PrivacySpent()
		if math.IsNaN(spent) || math.IsInf(spent, 0) {
			t.Fatalf("Build(%+v) accepted a non-finite privacy budget (spent=%v)", s, spent)
		}
	})
}

// FuzzColumnarBatch drives the columnar batch decoder with arbitrary
// bytes: malformed headers, truncated columns and count/length mismatches
// must error — never panic, never over-read — and anything that decodes
// must survive a re-encode→re-decode round trip with identical rows.
func FuzzColumnarBatch(f *testing.F) {
	// Seeds: a valid plain batch, a valid batch with registration columns,
	// and a bare header.
	w, err := NewColumnarWriter(0xABCD, 2)
	if err != nil {
		f.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		if err := w.Add(u*10, []byte{byte(u), byte(u * 2)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(w.AppendTo(nil))
	wr, err := NewColumnarWriter(1, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := wr.WithRegistrations(2); err != nil {
		f.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		if err := wr.AddWithRegistration(u, []byte{byte(u)}, Registration{HashSeed: uint64(u), Sampled: []int{u, u + 1}}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(wr.AppendTo(nil))
	empty, err := NewColumnarWriter(0, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty.AppendTo(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b ColumnarBatch
		if err := DecodeColumnar(data, &b); err != nil {
			return
		}
		n := b.Count()
		if len(b.Payloads) != n*b.Stride {
			t.Fatalf("payload column is %d bytes for %d rows of stride %d", len(b.Payloads), n, b.Stride)
		}
		if b.HasRegistrations() && (len(b.Seeds) != n || len(b.Buckets) != n*b.D) {
			t.Fatalf("registration columns hold %d seeds / %d buckets for %d rows, d=%d",
				len(b.Seeds), len(b.Buckets), n, b.D)
		}
		// Rebuild the batch through the writer; varints may have been
		// non-minimal in data, so compare decoded rows, not bytes.
		rw, err := NewColumnarWriter(b.SpecHash, max(b.Stride, 1))
		if err != nil {
			t.Fatal(err)
		}
		rw.SetRound(b.Round)
		if b.HasRegistrations() {
			if err := rw.WithRegistrations(b.D); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			var cell []byte
			if b.Stride > 0 {
				cell = b.Payload(i)
			} else {
				cell = make([]byte, 1) // n==0 here; unreachable, keeps types honest
			}
			if b.HasRegistrations() {
				err = rw.AddWithRegistration(b.IDs[i], cell, b.Registration(i))
			} else {
				err = rw.Add(b.IDs[i], cell)
			}
			if err != nil {
				t.Fatalf("re-encode of decoded row %d failed: %v", i, err)
			}
		}
		var rb ColumnarBatch
		if err := DecodeColumnar(rw.AppendTo(nil), &rb); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rb.Count() != n || !slices.Equal(rb.IDs, b.IDs) || !bytes.Equal(rb.Payloads, b.Payloads) ||
			!slices.Equal(rb.Seeds, b.Seeds) || !slices.Equal(rb.Buckets, b.Buckets) {
			t.Fatalf("round trip changed the batch")
		}
	})
}

func FuzzDecodeUEReport(f *testing.F) {
	f.Add([]byte{0x00}, 8)
	f.Add([]byte{0xFF, 0x01}, 9)
	f.Add([]byte{}, 64)
	f.Fuzz(func(t *testing.T, data []byte, kRaw int) {
		k := kRaw%500 + 2
		if k < 2 {
			k = 2
		}
		rep, _, err := DecodeUEReport(data, k)
		if err != nil {
			return
		}
		if rep.Bits.Len() != k {
			t.Fatalf("decoded %d bits, want %d", rep.Bits.Len(), k)
		}
	})
}

func FuzzDecodeGRRValueReport(f *testing.F) {
	f.Add([]byte{0x03}, 10)
	f.Add([]byte{0xFF, 0xFF}, 70000)
	f.Fuzz(func(t *testing.T, data []byte, kRaw int) {
		k := kRaw%100000 + 2
		if k < 2 {
			k = 2
		}
		rep, _, err := DecodeGRRValueReport(data, k)
		if err != nil {
			return
		}
		if rep.X < 0 || rep.X >= k {
			t.Fatalf("decoded %d outside [0,%d)", rep.X, k)
		}
	})
}

func FuzzDecodeDBitReport(f *testing.F) {
	f.Add([]byte{0xAA}, 5)
	f.Add([]byte{0x01, 0x02}, 12)
	f.Fuzz(func(t *testing.T, data []byte, dRaw int) {
		d := dRaw%64 + 1
		if d < 1 {
			d = 1
		}
		sampled := make([]int, d)
		for i := range sampled {
			sampled[i] = i
		}
		rep, _, err := DecodeDBitReport(data, sampled)
		if err != nil {
			return
		}
		if len(rep.Bits) != d {
			t.Fatalf("decoded %d bits, want %d", len(rep.Bits), d)
		}
	})
}
