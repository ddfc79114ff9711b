package longitudinal

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// buildColumnar encodes one batch of (id, payload[, reg]) triples through
// the writer, failing the test on any writer error.
func buildColumnar(t *testing.T, specHash uint64, stride int, round uint32, ids []int, payloads [][]byte, regs []Registration, d int) []byte {
	t.Helper()
	w, err := NewColumnarWriter(specHash, stride)
	if err != nil {
		t.Fatalf("NewColumnarWriter: %v", err)
	}
	w.SetRound(round)
	if regs != nil {
		if err := w.WithRegistrations(d); err != nil {
			t.Fatalf("WithRegistrations(%d): %v", d, err)
		}
	}
	for i, id := range ids {
		if regs != nil {
			err = w.AddWithRegistration(id, payloads[i], regs[i])
		} else {
			err = w.Add(id, payloads[i])
		}
		if err != nil {
			t.Fatalf("add report %d: %v", i, err)
		}
	}
	if got := w.Count(); got != len(ids) {
		t.Fatalf("Count() = %d, want %d", got, len(ids))
	}
	enc := w.AppendTo(nil)
	if got := w.EncodedSize(); got != len(enc) {
		t.Fatalf("EncodedSize() = %d, encoded %d bytes", got, len(enc))
	}
	return enc
}

func TestColumnarRoundTrip(t *testing.T) {
	// Non-monotonic IDs exercise negative deltas; stride-3 payloads make
	// off-by-one cell slicing visible.
	ids := []int{40, 7, 7_000_000, 0, 41}
	payloads := make([][]byte, len(ids))
	regs := make([]Registration, len(ids))
	for i := range ids {
		payloads[i] = []byte{byte(i), byte(i * 3), byte(0xF0 | i)}
		regs[i] = Registration{HashSeed: uint64(1000 + i), Sampled: []int{i, i + 7}}
	}

	for _, withRegs := range []bool{false, true} {
		name := "plain"
		r := []Registration(nil)
		if withRegs {
			name, r = "with-registrations", regs
		}
		t.Run(name, func(t *testing.T) {
			enc := buildColumnar(t, 0xfeed, 3, 9, ids, payloads, r, 2)
			var b ColumnarBatch
			if err := DecodeColumnar(enc, &b); err != nil {
				t.Fatalf("DecodeColumnar: %v", err)
			}
			if b.SpecHash != 0xfeed || b.Round != 9 || b.Stride != 3 {
				t.Fatalf("header = (%#x, %d, %d), want (0xfeed, 9, 3)", b.SpecHash, b.Round, b.Stride)
			}
			if b.Count() != len(ids) || !slices.Equal(b.IDs, ids) {
				t.Fatalf("IDs = %v, want %v", b.IDs, ids)
			}
			if b.HasRegistrations() != withRegs {
				t.Fatalf("HasRegistrations() = %v, want %v", b.HasRegistrations(), withRegs)
			}
			for i := range ids {
				if !bytes.Equal(b.Payload(i), payloads[i]) {
					t.Fatalf("payload %d = %x, want %x", i, b.Payload(i), payloads[i])
				}
				if withRegs {
					got := b.Registration(i)
					if got.HashSeed != regs[i].HashSeed || !slices.Equal(got.Sampled, regs[i].Sampled) {
						t.Fatalf("registration %d = %+v, want %+v", i, got, regs[i])
					}
				}
			}
		})
	}
}

// TestColumnarWriterReuse pins the writer's reuse contract: Reset keeps
// configuration and capacity, and an identical batch re-encodes to
// identical bytes.
func TestColumnarWriterReuse(t *testing.T) {
	w, err := NewColumnarWriter(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		for u := 0; u < 10; u++ {
			if err := w.Add(u*3, []byte{byte(u), byte(u + 1)}); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		enc := w.AppendTo(nil)
		w.Reset()
		return enc
	}
	first := encode()
	second := encode()
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoded batch differs after Reset")
	}
	// A decode target reused across batches of different sizes must not
	// leak rows from the earlier, larger batch.
	var b ColumnarBatch
	if err := DecodeColumnar(first, &b); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(5, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := DecodeColumnar(w.AppendTo(nil), &b); err != nil {
		t.Fatal(err)
	}
	if b.Count() != 1 || b.IDs[0] != 5 {
		t.Fatalf("reused decode target holds %d rows (IDs %v), want 1 row [5]", b.Count(), b.IDs)
	}
}

func TestColumnarWriterErrors(t *testing.T) {
	if _, err := NewColumnarWriter(0, 0); err == nil {
		t.Error("NewColumnarWriter accepted stride 0")
	}
	w, _ := NewColumnarWriter(0, 2)
	if err := w.Add(-1, []byte{1, 2}); err == nil {
		t.Error("Add accepted a negative user ID")
	}
	if err := w.Add(1, []byte{1}); err == nil {
		t.Error("Add accepted a payload shorter than the stride")
	}
	if err := w.AddWithRegistration(1, []byte{1, 2}, Registration{}); err == nil {
		t.Error("AddWithRegistration accepted on a writer without registration columns")
	}
	if err := w.Add(1, []byte{1, 2}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := w.WithRegistrations(1); err == nil {
		t.Error("WithRegistrations accepted after reports were added")
	}

	wr, _ := NewColumnarWriter(0, 2)
	if err := wr.WithRegistrations(2); err != nil {
		t.Fatal(err)
	}
	if err := wr.Add(1, []byte{1, 2}); err == nil {
		t.Error("Add accepted on a writer with registration columns")
	}
	if err := wr.AddWithRegistration(1, []byte{1, 2}, Registration{Sampled: []int{3}}); err == nil {
		t.Error("AddWithRegistration accepted a sampled set narrower than the column")
	}
	if err := wr.AddWithRegistration(1, []byte{1, 2}, Registration{Sampled: []int{3, -1}}); err == nil {
		t.Error("AddWithRegistration accepted a negative sampled bucket")
	}
}

func TestDecodeColumnarRejectsMalformed(t *testing.T) {
	valid := buildColumnar(t, 5, 2, 0, []int{1, 2, 3}, [][]byte{{1, 2}, {3, 4}, {5, 6}}, nil, 0)
	withRegs := buildColumnar(t, 5, 2, 0, []int{1, 2}, [][]byte{{1, 2}, {3, 4}},
		[]Registration{{HashSeed: 9, Sampled: []int{1}}, {HashSeed: 8, Sampled: []int{2}}}, 1)

	corrupt := func(name string, mutate func([]byte) []byte, src []byte) {
		t.Helper()
		bad := mutate(slices.Clone(src))
		var b ColumnarBatch
		if err := DecodeColumnar(bad, &b); err == nil {
			t.Errorf("%s: decode accepted the corrupted batch", name)
		}
	}
	corrupt("short header", func(b []byte) []byte { return b[:10] }, valid)
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, valid)
	corrupt("unknown flags", func(b []byte) []byte { b[24] |= 0x80; return b }, valid)
	corrupt("zero stride", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[20:], 0)
		return b
	}, valid)
	corrupt("inflated count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[16:], 1<<30)
		return b
	}, valid)
	corrupt("truncated ID column", func(b []byte) []byte { return b[:columnarHeaderBytes+1] }, valid)
	corrupt("short payload column", func(b []byte) []byte { return b[:len(b)-1] }, valid)
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 0) }, valid)
	corrupt("truncated registration columns", func(b []byte) []byte {
		return b[:columnarHeaderBytes+2+4+8]
	}, withRegs)
	corrupt("oversize registration d", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[columnarHeaderBytes+2:], MaxRegistrationSampled+1)
		return b
	}, withRegs)

	// An empty batch is valid and decodes to zero rows.
	w, _ := NewColumnarWriter(5, 2)
	var b ColumnarBatch
	if err := DecodeColumnar(w.AppendTo(nil), &b); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if b.Count() != 0 {
		t.Fatalf("empty batch decoded to %d rows", b.Count())
	}
}

// TestSpecHash pins that the hash separates every registered family and
// parameter change, and that it is stable across builds of the same spec.
func TestSpecHash(t *testing.T) {
	specs := []ProtocolSpec{
		{Family: "LOLOHA", K: 32, G: 2, EpsInf: 2, Eps1: 1},
		{Family: "LOLOHA", K: 64, G: 2, EpsInf: 2, Eps1: 1},
		{Family: "LOLOHA", K: 32, G: 4, EpsInf: 2, Eps1: 1},
		{Family: "LOLOHA", K: 32, G: 2, EpsInf: 3, Eps1: 1},
		{Family: "BiLOLOHA", K: 32, EpsInf: 2, Eps1: 1},
		{Family: "L-OSUE", K: 32, EpsInf: 2, Eps1: 1},
		{Family: "dBitFlipPM", K: 32, B: 8, D: 3, EpsInf: 2},
	}
	seen := make(map[uint64]ProtocolSpec)
	for _, s := range specs {
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("specs %+v and %+v share hash %#x", prev, s, h)
		}
		seen[h] = s
		if h != s.Hash() {
			t.Errorf("hash of %+v is unstable", s)
		}
	}
}

// TestColumnarStrideOf pins the stride every registered family exposes
// through its tallier: the payload sizes the clients emit.
func TestColumnarStrideOf(t *testing.T) {
	cases := []struct {
		spec   ProtocolSpec
		stride int
	}{
		{ProtocolSpec{Family: "RAPPOR", K: 20, EpsInf: 2, Eps1: 1}, 3},        // ⌈20/8⌉
		{ProtocolSpec{Family: "L-OSUE", K: 16, EpsInf: 2, Eps1: 1}, 2},        // ⌈16/8⌉
		{ProtocolSpec{Family: "L-GRR", K: 300, EpsInf: 2, Eps1: 1}, 2},        // value bytes of 300
		{ProtocolSpec{Family: "dBitFlipPM", K: 32, B: 8, D: 3, EpsInf: 2}, 1}, // ⌈3/8⌉
	}
	for _, c := range cases {
		p, err := c.spec.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", c.spec, err)
		}
		if stride := p.WireTallier().PayloadStride(); stride != c.stride {
			t.Errorf("%s stride = %d, want %d", c.spec.Family, stride, c.stride)
		}
		// Producer and server both derive the hash from the protocol's
		// normalized spec; these specs are already normalized.
		if p.Spec().Hash() != c.spec.Hash() {
			t.Errorf("%s: the built protocol's spec hash disagrees with its spec", c.spec.Family)
		}
	}
}
