package longitudinal

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// sparseParityKs is the acceptance grid of the sampler parity tests:
// small, medium and large domains.
var sparseParityKs = []int{16, 64, 1024}

// chainUEPair builds a protocol twice, one copy with the IRR sampler
// pinned to the per-position reference loop ("dense") and one on the
// word-parallel production path ("sparse"). Both protocols are otherwise
// identical, so any output divergence is a parity break.
func chainUEPair(t *testing.T, mk func() (*ChainUE, error)) (dense, sparse *ChainUE) {
	t.Helper()
	d, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	d.sampler.Reference = true
	return d, s
}

// prrBit is the per-bit definition of the memoized PRR encoding: bit i of
// value w is one PRF word under the p1 threshold at i = w and the q1
// threshold elsewhere. materialize packs exactly these bits.
func (cl *chainUEClient) prrBit(w, i int) bool {
	t := cl.q1T
	if i == w {
		t = cl.p1T
	}
	return randsrc.BernoulliWord(randsrc.StreamWord(randsrc.Derive(cl.seed, uint64(w)), i), t)
}

// TestChainUEPRRMaskMatchesPerBitDefinition: the word-parallel PRR mask
// must hold, bit for bit, the per-position PRF draws it packs — across
// word boundaries, ragged tails, and the one-hot position in every word.
func TestChainUEPRRMaskMatchesPerBitDefinition(t *testing.T) {
	for _, k := range []int{2, 63, 64, 65, 100, 1024} {
		p, err := NewRAPPOR(k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 4; seed++ {
			cl := p.NewClient(seed).(*chainUEClient)
			for _, w := range []int{0, 1, k / 2, k - 2, k - 1} {
				mask := cl.maskOf(w)
				if len(mask) != (k+63)/64 {
					t.Fatalf("k=%d: mask has %d words", k, len(mask))
				}
				for i := 0; i < len(mask)*64; i++ {
					got := mask[i>>6]>>(uint(i)&63)&1 == 1
					want := i < k && cl.prrBit(w, i)
					if got != want {
						t.Fatalf("k=%d seed=%d value=%d: mask bit %d = %v, PRF says %v", k, seed, w, i, got, want)
					}
				}
			}
		}
	}
}

// TestChainUEClientStateBounded: a client that roams over every value of
// a large domain keeps at most prrCacheCap packed masks — k/64 words
// each, not a position list — and still reports bit-identically to a
// fresh client and charges its ledger once per distinct value.
func TestChainUEClientStateBounded(t *testing.T) {
	const k = 1024
	p, err := NewRAPPOR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	roamer := p.NewClient(5).(*chainUEClient)
	var buf []byte
	for v := 0; v < k; v++ {
		buf = roamer.AppendReport(buf[:0], v)
		if len(roamer.slots) > prrCacheCap {
			t.Fatalf("after %d values the cache holds %d masks, cap %d", v+1, len(roamer.slots), prrCacheCap)
		}
		if len(roamer.masks) != len(roamer.slots)*roamer.nw {
			t.Fatalf("after %d values: %d mask words for %d slots", v+1, len(roamer.masks), len(roamer.slots))
		}
	}
	if got, limit := cap(roamer.masks), 2*prrCacheCap*roamer.nw; got > limit {
		t.Errorf("mask storage capacity %d words, want <= %d", got, limit)
	}
	if u := roamer.ledger.Units(); u != k {
		t.Errorf("ledger holds %d units after %d distinct values", u, k)
	}
	// Revisit evicted and cached values: the bytes are those of a client
	// that made as many reports (so its stream is at the same word) but
	// never evicted anything.
	fresh := p.NewClient(5).(*chainUEClient)
	var want []byte
	for v := 0; v < k; v++ {
		want = fresh.AppendReport(want[:0], 0)
	}
	for i := 0; i < 64; i++ {
		v := (i * 97) % k
		buf = roamer.AppendReport(buf[:0], v)
		want = fresh.AppendReport(want[:0], v)
		if !bytes.Equal(buf, want) {
			t.Fatalf("revisit %d (value %d): %x != %x", i, v, buf, want)
		}
	}
	if u := roamer.ledger.Units(); u != k {
		t.Errorf("revisits changed the ledger: %d units", u)
	}
}

func dbitPair(t *testing.T, k, b, d int, epsInf float64) (dense, sparse *DBitFlipPM) {
	t.Helper()
	mk := func() *DBitFlipPM {
		p, err := NewDBitFlipPM(k, b, d, epsInf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dn, sp := mk(), mk()
	dn.sampler.Reference = true
	return dn, sp
}

// valueSequence drives a client through a deterministic evolving-value
// sequence: mostly stable with occasional jumps, the paper's setting.
func valueSequence(seed uint64, k, rounds int) []int {
	r := randsrc.NewSeeded(seed)
	out := make([]int, rounds)
	v := r.Intn(k)
	for t := range out {
		if r.Float64() < 0.15 {
			v = r.Intn(k)
		}
		out[t] = v
	}
	return out
}

// TestChainUESparseDenseParity: for every chained-UE calibration and
// domain size, a dense-pinned and a sparse-pinned protocol with identical
// seeds must emit bit-identical reports — through AppendReport and
// through the wire decoder — and identical estimates.
func TestChainUESparseDenseParity(t *testing.T) {
	chains := map[string]func(k int) (*ChainUE, error){
		"RAPPOR": func(k int) (*ChainUE, error) { return NewRAPPOR(k, 2, 1) },
		"L-OSUE": func(k int) (*ChainUE, error) { return NewLOSUE(k, 2, 1) },
		"L-OUE":  func(k int) (*ChainUE, error) { return NewLOUE(k, 2, 0.4) },
		"L-SOUE": func(k int) (*ChainUE, error) { return NewLSOUE(k, 2, 0.4) },
	}
	const users, rounds = 16, 6
	for name, mk := range chains {
		for _, k := range sparseParityKs {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				dense, sparse := chainUEPair(t, func() (*ChainUE, error) { return mk(k) })
				aggD, aggS := dense.NewAggregator(), sparse.NewAggregator()
				for u := 0; u < users; u++ {
					seed := randsrc.Derive(77, uint64(u))
					clD := dense.NewClient(seed).(*chainUEClient)
					clS := sparse.NewClient(seed).(*chainUEClient)
					var bufD, bufS []byte
					for _, v := range valueSequence(uint64(u), k, rounds) {
						bufD = clD.AppendReport(bufD[:0], v)
						bufS = clS.AppendReport(bufS[:0], v)
						if !bytes.Equal(bufD, bufS) {
							t.Fatalf("user %d value %d: dense %x != sparse %x", u, v, bufD, bufS)
						}
						mustTally(t, dense, aggD, u, bufD, Registration{})
						mustTally(t, sparse, aggS, u, mustReencodeUE(t, bufS, k), Registration{})
					}
				}
				if !equalFloats(aggD.EndRound(), aggS.EndRound()) {
					t.Fatal("dense and sparse estimates diverged")
				}
			})
		}
	}
}

// mustTally tallies one payload through p's tallier or fails the test.
func mustTally(t *testing.T, p Protocol, agg Aggregator, u int, payload []byte, reg Registration) {
	t.Helper()
	if err := TallyPayload(p.WireTallier(), agg, u, payload, reg); err != nil {
		t.Fatal(err)
	}
}

// mustReencodeUE decodes exactly one k-bit UE payload and re-encodes it,
// or fails the test.
func mustReencodeUE(t *testing.T, payload []byte, k int) []byte {
	t.Helper()
	rep, rest, err := DecodeUEReport(payload, k)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decoding %d-byte UE payload: err=%v, %d trailing bytes", len(payload), err, len(rest))
	}
	return freqoracle.AppendUEReport(nil, rep.Bits)
}

// packDBit is the dBitFlipPM wire form of decoded bits: bit l of the
// payload is sampled slot l, byte-packed little-endian.
func packDBit(bits []bool) []byte {
	dst := make([]byte, (len(bits)+7)/8)
	for i, bit := range bits {
		if bit {
			dst[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return dst
}

// TestChainUEReportMatchesAppendReport: AppendReport must emit the same
// bytes for identical client state, and those bytes must be exactly the
// wire form of the report the decoder reads back.
func TestChainUEReportMatchesAppendReport(t *testing.T) {
	for _, k := range sparseParityKs {
		p, err := NewLOSUE(k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		clA := p.NewClient(11)
		clB := p.NewClient(11)
		var buf []byte
		for t2 := 0; t2 < 8; t2++ {
			v := (t2 * 3) % k
			ref := clA.AppendReport(nil, v)
			buf = clB.AppendReport(buf[:0], v)
			decoded := mustReencodeUE(t, buf, k)
			if !bytes.Equal(ref, buf) || !bytes.Equal(decoded, buf) {
				t.Fatalf("k=%d round %d: reference %x, decoded %x, AppendReport %x", k, t2, ref, decoded, buf)
			}
		}
	}
}

// TestDBitSparseDenseParity: dense- and sparse-pinned dBitFlipPM must
// memoize identical responses (reports AND estimates), for d spanning the
// 1-bit, partial and full-bucket cases.
func TestDBitSparseDenseParity(t *testing.T) {
	for _, k := range sparseParityKs {
		b := k / 4
		for _, d := range []int{1, b / 2, b} {
			if d < 1 {
				continue
			}
			t.Run(fmt.Sprintf("k=%d/d=%d", k, d), func(t *testing.T) {
				dense, sparse := dbitPair(t, k, b, d, 2)
				aggD, aggS := dense.NewAggregator(), sparse.NewAggregator()
				for u := 0; u < 32; u++ {
					seed := randsrc.Derive(99, uint64(u))
					clD := dense.NewClient(seed).(*dBitClient)
					clS := sparse.NewClient(seed).(*dBitClient)
					var bufD, bufS []byte
					for _, v := range valueSequence(uint64(u)+1, k, 5) {
						bufD = clD.AppendReport(bufD[:0], v)
						bufS = clS.AppendReport(bufS[:0], v)
						if !bytes.Equal(bufD, bufS) {
							t.Fatalf("user %d value %d: dense %x != sparse %x", u, v, bufD, bufS)
						}
						mustTally(t, dense, aggD, u, bufD, clD.WireRegistration())
						mustTally(t, sparse, aggS, u, bufS, clS.WireRegistration())
					}
				}
				if !equalFloats(aggD.EndRound(), aggS.EndRound()) {
					t.Fatal("dense and sparse estimates diverged")
				}
			})
		}
	}
}

// TestDBitReportMatchesAppendReport: the packed AppendReport payload must
// byte-match the serialization of the DBitReport the decoder reads back.
func TestDBitReportMatchesAppendReport(t *testing.T) {
	p, err := NewDBitFlipPM(64, 16, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(5)
	var buf []byte
	for v := 0; v < 64; v += 7 {
		buf = cl.AppendReport(buf[:0], v)
		rep, rest, err := DecodeDBitReport(buf, cl.WireRegistration().Sampled)
		if err != nil || len(rest) != 0 {
			t.Fatalf("value %d: decoding %x: err=%v, %d trailing bytes", v, buf, err, len(rest))
		}
		if decoded := packDBit(rep.Bits); !bytes.Equal(decoded, buf) {
			t.Fatalf("value %d: decoded %x != AppendReport %x", v, decoded, buf)
		}
	}
}

// TestLGRRReportMatchesAppendReport: same-seed clients on the two paths
// must emit identical wire bytes, the wire form of the value the decoder
// reads back (the scalar families have no dense/sparse split).
func TestLGRRReportMatchesAppendReport(t *testing.T) {
	for _, k := range sparseParityKs {
		p, err := NewLGRR(k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		clA, clB := p.NewClient(13), p.NewClient(13)
		var buf []byte
		for i := 0; i < 20; i++ {
			v := (i * 5) % k
			ref := clA.AppendReport(nil, v)
			buf = clB.AppendReport(buf[:0], v)
			rep, _, err := DecodeGRRValueReport(buf, k)
			if err != nil {
				t.Fatal(err)
			}
			if decoded := freqoracle.AppendGRRReport(nil, rep.X, k); !bytes.Equal(ref, buf) || !bytes.Equal(decoded, buf) {
				t.Fatalf("k=%d round %d: reference %x, decoded %x, AppendReport %x", k, i, ref, decoded, buf)
			}
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
