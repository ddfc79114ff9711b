package core

import (
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/domain"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		k, g         int
		epsInf, eps1 float64
	}{
		{1, 2, 2, 1},   // k too small
		{10, 1, 2, 1},  // g too small
		{10, 2, 2, 2},  // eps1 == epsInf
		{10, 2, 2, 0},  // eps1 zero
		{10, 2, 0, -1}, // everything broken
	}
	for _, c := range cases {
		if _, err := New(c.k, c.g, c.epsInf, c.eps1); err == nil {
			t.Errorf("New(%d,%d,%v,%v) accepted", c.k, c.g, c.epsInf, c.eps1)
		}
	}
	if _, err := New(10, 4, 2, 1, WithFamily(hashfamily.NewSplitMixFamily(8))); err == nil {
		t.Error("family/g mismatch accepted")
	}
}

func TestNamedConstructors(t *testing.T) {
	bi, err := NewBinary(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bi.G() != 2 || bi.Name() != "BiLOLOHA" {
		t.Errorf("BiLOLOHA: g=%d name=%q", bi.G(), bi.Name())
	}
	ol, err := NewOptimal(100, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ol.G() != OptimalG(5, 3) || ol.Name() != "OLOLOHA" {
		t.Errorf("OLOLOHA: g=%d name=%q", ol.G(), ol.Name())
	}
	if ol.G() <= 2 {
		t.Errorf("at eps∞=5, α=0.6 the optimal g should exceed 2, got %d", ol.G())
	}
}

func TestTheorem33PRRRatio(t *testing.T) {
	// PRR parameters give p/q = e^{ε∞} exactly.
	p, err := New(50, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr := p.prr.Params()
	if got := math.Log(pr.P / pr.Q); math.Abs(got-3) > 1e-9 {
		t.Errorf("PRR ratio gives eps %v, want 3", got)
	}
}

func TestTheorem34FirstReportEps(t *testing.T) {
	// The chained per-cell probabilities must satisfy
	// (p1p2+q1q2)/(p1q2+q1p2) = e^{ε1} with the paper's εIRR.
	for _, c := range []struct{ epsInf, eps1 float64 }{
		{1, 0.4}, {2, 1}, {5, 3}, {0.5, 0.05},
	} {
		p, err := New(100, 2, c.epsInf, c.eps1)
		if err != nil {
			t.Fatal(err)
		}
		p1, q1 := p.prr.Params().P, p.prr.Params().Q
		p2, q2 := p.irr.Params().P, p.irr.Params().Q
		ratio := (p1*p2 + q1*q2) / (p1*q2 + q1*p2)
		if math.Abs(ratio-math.Exp(c.eps1)) > 1e-9 {
			t.Errorf("eps∞=%v eps1=%v: first-report ratio %v, want e^ε1 = %v",
				c.epsInf, c.eps1, ratio, math.Exp(c.eps1))
		}
	}
}

func TestTheorem35LongitudinalBudget(t *testing.T) {
	p, _ := New(1000, 4, 2, 1)
	if got := p.LongitudinalBudget(); got != 8 {
		t.Errorf("budget %v, want g·ε∞ = 8", got)
	}
	// A client cycling through the whole domain can never exceed g·ε∞.
	cl := p.newClient(77)
	for v := 0; v < 1000; v++ {
		cl.AppendReport(nil, v)
	}
	if got := cl.PrivacySpent(); got > 8+1e-12 {
		t.Errorf("client spent %v, cap is 8", got)
	}
	if got := cl.PrivacySpent(); got < 2 {
		t.Errorf("client that visited all cells spent only %v", got)
	}
}

func TestLedgerChargesPerHashCellNotPerValue(t *testing.T) {
	// Two values colliding under the client's hash must cost one ε∞.
	p, _ := New(1000, 2, 2, 1)
	cl := p.newClient(5)
	// Find two values with equal hash and two with different hash.
	vSame, vDiff := -1, -1
	h0 := cl.hash.Index(0)
	for v := 1; v < 1000; v++ {
		if cl.hash.Index(v) == h0 && vSame < 0 {
			vSame = v
		}
		if cl.hash.Index(v) != h0 && vDiff < 0 {
			vDiff = v
		}
	}
	cl.AppendReport(nil, 0)
	spent0 := cl.PrivacySpent()
	cl.AppendReport(nil, vSame)
	if cl.PrivacySpent() != spent0 {
		t.Error("colliding value charged a fresh ε∞")
	}
	cl.AppendReport(nil, vDiff)
	if cl.PrivacySpent() <= spent0 {
		t.Error("new hash cell did not charge ε∞")
	}
}

func TestMemoizedPRRStable(t *testing.T) {
	// The PRR output for a fixed hash cell must be identical across rounds
	// (PRF memoization); only the IRR varies.
	p, _ := New(100, 4, 2, 0.5)
	cl := p.newClient(3)
	x := cl.hash.Index(42)
	w1 := randsrc.Derive(cl.seed, uint64(x), 1)
	w2 := randsrc.Derive(cl.seed, uint64(x), 2)
	memo := p.prr.PerturbWord(x, w1, w2)
	for i := 0; i < 50; i++ {
		if p.prr.PerturbWord(x, w1, w2) != memo {
			t.Fatal("memoized PRR changed")
		}
	}
}

func TestEndToEndStaticEstimation(t *testing.T) {
	const k, n, tau = 16, 30000, 3
	values := make([]int, n)
	for u := range values {
		values[u] = (u * u) % k
	}
	truth := domain.TrueFrequencies(values, k)

	for _, mk := range []func() (*Protocol, error){
		func() (*Protocol, error) { return NewBinary(k, 3, 1.5) },
		func() (*Protocol, error) { return NewOptimal(k, 3, 1.5) },
		func() (*Protocol, error) { return New(k, 4, 3, 1.5, WithoutSupportCache()) },
		func() (*Protocol, error) {
			return New(k, 4, 3, 1.5, WithFamily(hashfamily.NewCarterWegmanFamily(4)))
		},
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]*Client, n)
		for u := range clients {
			clients[u] = p.newClient(randsrc.Derive(1000, uint64(u)))
		}
		agg := p.NewServer()
		var est []float64
		for round := 0; round < tau; round++ {
			for u, v := range values {
				tally(t, p, agg, u, clients[u], v)
			}
			est = agg.EndRound()
		}
		sd := math.Sqrt(p.ApproxVariance(n))
		for v := 0; v < k; v++ {
			if math.Abs(est[v]-truth[v]) > 6*sd+0.01 {
				t.Errorf("%s(g=%d): est[%d] = %v, truth %v (sd %v)",
					p.Name(), p.G(), v, est[v], truth[v], sd)
			}
		}
	}
}

func TestCacheAndNoCacheAgree(t *testing.T) {
	// The support-cache is a pure optimization: identical reports must give
	// identical counts either way.
	const k, n = 32, 500
	mk := func(opts ...Option) (*Protocol, [][]byte, []longitudinal.Registration) {
		p, err := New(k, 4, 2, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([][]byte, n)
		regs := make([]longitudinal.Registration, n)
		for u := 0; u < n; u++ {
			cl := p.newClient(uint64(u))
			payloads[u] = cl.AppendReport(nil, u%k)
			regs[u] = cl.WireRegistration()
		}
		return p, payloads, regs
	}
	pc, payloads, regs := mk()
	pn, _, _ := mk(WithoutSupportCache())

	aggC, aggN := pc.NewServer(), pn.NewServer()
	for u, payload := range payloads {
		for _, pa := range []struct {
			p   *Protocol
			agg *Aggregator
		}{{pc, aggC}, {pn, aggN}} {
			if err := longitudinal.TallyPayload(pa.p.WireTallier(), pa.agg, u, payload, regs[u]); err != nil {
				t.Fatal(err)
			}
		}
	}
	estC, estN := aggC.EndRound(), aggN.EndRound()
	for v := range estC {
		if math.Abs(estC[v]-estN[v]) > 1e-12 {
			t.Fatalf("cache/no-cache estimates diverge at v=%d: %v vs %v", v, estC[v], estN[v])
		}
	}
}

func TestReportEncodingWidth(t *testing.T) {
	p, _ := New(1000, 16, 3, 1)
	cl := p.newClient(1)
	if got := len(cl.AppendReport(nil, 500)); got != 1 {
		t.Errorf("g=16 report uses %d bytes, want 1", got)
	}
	if p.SteadyReportBits() != 4 {
		t.Errorf("g=16 steady bits = %d, want 4", p.SteadyReportBits())
	}
	bi, _ := NewBinary(1000, 3, 1)
	if bi.SteadyReportBits() != 1 {
		t.Errorf("BiLOLOHA steady bits = %d, want 1", bi.SteadyReportBits())
	}
}

func TestAggregatorRejectsForeignReport(t *testing.T) {
	p, _ := NewBinary(10, 2, 1)
	other, _ := NewBinary(10, 2, 1)
	ct := p.WireTallier()
	if err := ct.TallyCell(other.NewServer(), 0, []byte{0}, longitudinal.Registration{}); err == nil {
		t.Fatal("foreign aggregator accepted")
	}
	if err := ct.TallyCell(p.NewServer(), 0, []byte{2}, longitudinal.Registration{}); err == nil {
		t.Fatal("report outside [0,g) accepted")
	}
}

func TestClientPanicsOnOutOfRange(t *testing.T) {
	p, _ := NewBinary(10, 2, 1)
	cl := p.newClient(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range value accepted")
		}
	}()
	cl.AppendReport(nil, 10)
}

// tally emits cl's report of v and tallies it into agg through p's
// tallier — the generate→tally round trip every collection layer takes.
func tally(t testing.TB, p *Protocol, agg *Aggregator, u int, cl *Client, v int) {
	t.Helper()
	if err := longitudinal.TallyPayload(p.WireTallier(), agg, u, cl.AppendReport(nil, v), cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolImplementsLongitudinalInterface(t *testing.T) {
	var _ longitudinal.Protocol = mustProto(t)
}

func mustProto(t *testing.T) *Protocol {
	t.Helper()
	p, err := NewBinary(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
