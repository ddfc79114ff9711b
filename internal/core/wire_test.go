package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestLolohaReportWireRoundTrip(t *testing.T) {
	p, err := New(200, 16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.newClient(9)
	for i := 0; i < 40; i++ {
		buf := cl.AppendReport(nil, i%200)
		if len(buf) != 1 {
			t.Fatalf("g=16 payload %d bytes, want 1", len(buf))
		}
		got, rest, err := DecodeReport(buf, 16, cl.HashSeed())
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || !bytes.Equal(freqoracle.AppendGRRReport(nil, got.X, 16), buf) || got.HashSeed != cl.HashSeed() {
			t.Fatalf("round trip mismatch: %+v from %x", got, buf)
		}
	}
}

func TestLolohaReportMatchesAppendReport(t *testing.T) {
	// Same-seed clients must emit identical wire bytes — the wire form of
	// the cell the decoder reads back — and identical registration
	// metadata, for each acceptance domain size.
	for _, k := range []int{16, 64, 1024} {
		p, err := NewOptimal(k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		clA, clB := p.newClient(21), p.newClient(21)
		if clA.WireRegistration().HashSeed != clB.WireRegistration().HashSeed {
			t.Fatal("same-seed clients drew different hash functions")
		}
		var buf []byte
		for i := 0; i < 30; i++ {
			v := (i * 11) % k
			ref := clA.AppendReport(nil, v)
			buf = clB.AppendReport(buf[:0], v)
			rep, _, err := DecodeReport(buf, p.G(), clB.HashSeed())
			if err != nil {
				t.Fatal(err)
			}
			if decoded := freqoracle.AppendGRRReport(nil, rep.X, p.G()); !bytes.Equal(ref, buf) || !bytes.Equal(decoded, buf) {
				t.Fatalf("k=%d round %d: reference %x, decoded %x, AppendReport %x", k, i, ref, decoded, buf)
			}
		}
		if clA.PrivacySpent() != clB.PrivacySpent() {
			t.Fatal("paths charged the ledger differently")
		}
	}
}

func TestLolohaWireAggregationEquivalence(t *testing.T) {
	const k, n = 64, 3000
	p, err := NewBinary(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct := p.NewServer()
	viaWire := p.NewServer()
	r := randsrc.NewSeeded(5)
	for u := 0; u < n; u++ {
		cl := p.newClient(uint64(u))
		buf := cl.AppendReport(nil, r.Intn(k))
		if err := p.WireTallier().TallyCell(direct, u, buf, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
		decoded, _, err := DecodeReport(buf, p.G(), cl.HashSeed())
		if err != nil {
			t.Fatal(err)
		}
		viaWire.addCell(u, decoded.HashSeed, decoded.X)
	}
	a, b := direct.EndRound(), viaWire.EndRound()
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-15 {
			t.Fatalf("estimates diverge at v=%d", v)
		}
	}
}

func TestDecodeReportErrors(t *testing.T) {
	if _, _, err := DecodeReport(nil, 4, 1); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, _, err := DecodeReport([]byte{9}, 4, 1); err == nil {
		t.Error("out-of-domain cell accepted")
	}
}
