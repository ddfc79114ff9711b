package longitudinal

import (
	"bytes"
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestUEReportWireRoundTrip(t *testing.T) {
	p, err := NewRAPPOR(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(1)
	for i := 0; i < 20; i++ {
		buf := cl.AppendReport(nil, i%100)
		got, rest, err := DecodeUEReport(buf, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("leftover %d bytes", len(rest))
		}
		if !bytes.Equal(freqoracle.AppendUEReport(nil, got.Bits), buf) {
			t.Fatal("UE wire round trip mismatch")
		}
	}
}

func TestGRRValueReportWireRoundTrip(t *testing.T) {
	p, err := NewLGRR(300, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(2)
	for i := 0; i < 50; i++ {
		buf := cl.AppendReport(nil, i%300)
		got, rest, err := DecodeGRRValueReport(buf, 300)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || !bytes.Equal(freqoracle.AppendGRRReport(nil, got.X, 300), buf) || got.K != 300 {
			t.Fatalf("round trip: got %+v from %x", got, buf)
		}
	}
}

func TestDBitReportWireRoundTrip(t *testing.T) {
	p, err := NewDBitFlipPM(100, 20, 9, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(3)
	buf := cl.AppendReport(nil, 5)
	if len(buf) != 2 { // 9 bits -> 2 bytes
		t.Fatalf("encoded %d bytes, want 2", len(buf))
	}
	reg := cl.WireRegistration()
	got, rest, err := DecodeDBitReport(buf, reg.Sampled)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	// The decoded bits are exactly the support the tallier counts.
	agg := p.NewAggregator()
	if err := TallyPayload(p.WireTallier(), agg, 0, buf, reg); err != nil {
		t.Fatal(err)
	}
	counts, _ := agg.ExportTally(nil)
	for l, j := range got.Sampled {
		if got.Bits[l] != (counts[j] == 1) {
			t.Fatal("dBit wire round trip mismatch")
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeUEReport(make([]byte, 1), 100); err == nil {
		t.Error("short UE buffer accepted")
	}
	if _, _, err := DecodeGRRValueReport(nil, 300); err == nil {
		t.Error("short GRR buffer accepted")
	}
	if _, _, err := DecodeDBitReport(nil, []int{1, 2, 3}); err == nil {
		t.Error("short dBit buffer accepted")
	}
	if _, _, err := DecodeDBitReport([]byte{0}, nil); err == nil {
		t.Error("empty sampled set accepted")
	}
}

func TestWireAggregationEquivalence(t *testing.T) {
	// Feeding an aggregator the decoded reports must produce estimates
	// identical to tallying the payloads in place — the production path.
	const k, n = 50, 2000
	p, err := NewLOSUE(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct := p.NewAggregator()
	viaWire := p.NewAggregator().(*chainUEAggregator)
	r := randsrc.NewSeeded(4)
	for u := 0; u < n; u++ {
		cl := p.NewClient(uint64(u))
		buf := cl.AppendReport(nil, r.Intn(k))
		if err := TallyPayload(p.WireTallier(), direct, u, buf, Registration{}); err != nil {
			t.Fatal(err)
		}
		decoded, _, err := DecodeUEReport(buf, k)
		if err != nil {
			t.Fatal(err)
		}
		viaWire.AddRow(decoded.Bits.Words())
		viaWire.N++
	}
	a, b := direct.EndRound(), viaWire.EndRound()
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-15 {
			t.Fatalf("estimates diverge at v=%d: %v vs %v", v, a[v], b[v])
		}
	}
}
