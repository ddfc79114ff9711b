package freqoracle

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestValueBytes(t *testing.T) {
	cases := []struct{ k, want int }{
		{2, 1}, {16, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 3}, {1412, 2},
	}
	for _, c := range cases {
		if got := valueBytes(c.k); got != c.want {
			t.Errorf("valueBytes(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestGRRReportRoundTrip(t *testing.T) {
	f := func(vRaw uint16, kRaw uint16) bool {
		k := int(kRaw%2000) + 2
		v := int(vRaw) % k
		buf := AppendGRRReport(nil, v, k)
		got, rest, err := DecodeGRRReport(buf, k)
		return err == nil && got == v && len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGRRReportSizeMatchesTable1(t *testing.T) {
	// Table 1: GRR-style reports cost ceil(log2 k) bits; our byte-aligned
	// wire format rounds up to bytes.
	if n := len(AppendGRRReport(nil, 3, 360)); n != 2 {
		t.Errorf("report over k=360 uses %d bytes, want 2", n)
	}
	if n := len(AppendGRRReport(nil, 1, 2)); n != 1 {
		t.Errorf("report over k=2 uses %d bytes, want 1", n)
	}
}

func TestDecodeGRRReportErrors(t *testing.T) {
	if _, _, err := DecodeGRRReport(nil, 300); err == nil {
		t.Error("short buffer accepted")
	}
	buf := AppendGRRReport(nil, 255, 256)
	if _, _, err := DecodeGRRReport(buf, 200); err == nil {
		t.Error("out-of-domain report accepted")
	}
}

func TestLHReportRoundTrip(t *testing.T) {
	f := func(seed uint64, xRaw uint8, gRaw uint8) bool {
		g := int(gRaw%30) + 2
		x := int(xRaw) % g
		buf := AppendLHReport(nil, LHReport{Seed: seed, X: x}, g)
		got, rest, err := DecodeLHReport(buf, g)
		return err == nil && got.Seed == seed && got.X == x && len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUEReportRoundTrip(t *testing.T) {
	r := randsrc.NewSeeded(71)
	for _, k := range []int{2, 8, 63, 64, 65, 100, 360} {
		m, err := NewSUE(k, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		rep := m.Privatize(k/2, r)
		buf := AppendUEReport(nil, rep)
		if len(buf) != (k+7)/8 {
			t.Errorf("k=%d report uses %d bytes, want %d", k, len(buf), (k+7)/8)
		}
		got, rest, err := DecodeUEReport(buf, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Errorf("k=%d leftover bytes: %d", k, len(rest))
		}
		if !got.Equal(rep) {
			t.Errorf("k=%d round trip mismatch", k)
		}
	}
}

func TestUEDecodeShortBuffer(t *testing.T) {
	if _, _, err := DecodeUEReport(make([]byte, 3), 64); err == nil {
		t.Error("short UE buffer accepted")
	}
}

func TestReportStreamConcatenation(t *testing.T) {
	// Reports must be parseable back-to-back from one buffer (batch upload).
	r := randsrc.NewSeeded(73)
	m, _ := NewOLH(100, 1.0)
	var buf []byte
	var want []LHReport
	for i := 0; i < 20; i++ {
		rep := m.Privatize(i%100, r)
		want = append(want, rep)
		buf = AppendLHReport(buf, rep, m.G())
	}
	for i := 0; i < 20; i++ {
		got, rest, err := DecodeLHReport(buf, m.G())
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("report %d mismatch: %+v != %+v", i, got, want[i])
		}
		buf = rest
	}
	if len(buf) != 0 {
		t.Errorf("leftover bytes after stream decode: %d", len(buf))
	}
}

func TestParseGRRPayloadStrict(t *testing.T) {
	const k = 300 // 2 payload bytes
	if n := GRRPayloadBytes(k); n != 2 {
		t.Fatalf("GRRPayloadBytes(%d) = %d, want 2", k, n)
	}
	for v := 0; v < k; v += 37 {
		payload := AppendGRRReport(nil, v, k)
		got, err := ParseGRRPayload(payload, k)
		if err != nil || got != v {
			t.Fatalf("round-trip %d: got %d, err %v", v, got, err)
		}
	}
	if _, err := ParseGRRPayload([]byte{1}, k); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := ParseGRRPayload([]byte{1, 0, 0}, k); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := ParseGRRPayload(AppendGRRReport(nil, k, k+1)[:2], k); err == nil {
		t.Error("out-of-range value accepted")
	}
}

func TestCheckUEPayloadAndWords(t *testing.T) {
	for _, k := range []int{5, 8, 24, 64, 67, 130} {
		bs := bitset.New(k)
		for i := 0; i < k; i += 3 {
			bs.Set(i, true)
		}
		payload := AppendUEReport(nil, bs)
		if err := CheckUEPayload(payload, k); err != nil {
			t.Fatalf("k=%d: valid payload rejected: %v", k, err)
		}
		words := make([]uint64, (k+63)/64)
		for i := range words {
			words[i] = ^uint64(0) // every word is overwritten
		}
		UEPayloadWords(words, payload)
		if !slices.Equal(words, bs.Words()) {
			t.Fatalf("k=%d: payload words %x, want %x", k, words, bs.Words())
		}
		if err := CheckUEPayload(payload[:len(payload)-1], k); err == nil {
			t.Errorf("k=%d: short payload accepted", k)
		}
		if err := CheckUEPayload(append(append([]byte{}, payload...), 0), k); err == nil {
			t.Errorf("k=%d: trailing byte accepted", k)
		}
		if k%8 != 0 {
			bad := append([]byte{}, payload...)
			bad[len(bad)-1] |= 1 << (uint(k) % 8) // set a bit beyond k
			if err := CheckUEPayload(bad, k); err == nil {
				t.Errorf("k=%d: nonzero bit beyond length accepted", k)
			}
		}
	}
}
