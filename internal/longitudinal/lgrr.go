package longitudinal

import (
	"fmt"
	"math"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/privacy"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// LGRR is the L-GRR protocol (§2.4.3): GRR chained in both the PRR and IRR
// steps over the full domain [0..k). Optimal for small k; its variance
// degrades quickly as k grows (which Fig. 3 shows).
type LGRR struct {
	k            int
	epsInf, eps1 float64
	epsIRR       float64
	prr          *freqoracle.GRR // ε∞ over k
	irr          *freqoracle.GRR // ε_IRR over k
	params       ChainParams
}

// NewLGRR returns the L-GRR protocol for domain size k with longitudinal
// budget epsInf and first-report budget eps1.
func NewLGRR(k int, epsInf, eps1 float64) (*LGRR, error) {
	if k < 2 {
		return nil, fmt.Errorf("longitudinal: L-GRR needs k >= 2, got %d", k)
	}
	epsIRR, err := EpsIRR(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	prr, err := freqoracle.NewGRR(k, epsInf)
	if err != nil {
		return nil, err
	}
	irr, err := freqoracle.NewGRR(k, epsIRR)
	if err != nil {
		return nil, err
	}
	return &LGRR{
		k:      k,
		epsInf: epsInf,
		eps1:   eps1,
		epsIRR: epsIRR,
		prr:    prr,
		irr:    irr,
		params: ChainParams{
			P1: prr.Params().P, Q1: prr.Params().Q,
			P2: irr.Params().P, Q2: irr.Params().Q,
		},
	}, nil
}

// Name implements Protocol.
func (m *LGRR) Name() string { return "L-GRR" }

// K implements Protocol.
func (m *LGRR) K() int { return m.k }

// Params returns the calibrated chain probabilities.
func (m *LGRR) Params() ChainParams { return m.params }

// EpsIRR returns the instantaneous-round budget derived from (ε∞, ε1).
func (m *LGRR) EpsIRR() float64 { return m.epsIRR }

// ApproxVariance returns Eq. (5) for this chain with n users.
func (m *LGRR) ApproxVariance(n int) float64 { return m.params.ApproxVariance(n) }

// SteadyReportBits implements Protocol: one value in [0..k) per round.
func (m *LGRR) SteadyReportBits() int {
	return int(math.Ceil(math.Log2(float64(m.k))))
}

// Spec implements Protocol.
func (m *LGRR) Spec() ProtocolSpec {
	return ProtocolSpec{Family: "L-GRR", K: m.k, EpsInf: m.epsInf, Eps1: m.eps1}
}

// NewClient implements Protocol.
func (m *LGRR) NewClient(seed uint64) Client {
	return &lgrrClient{
		proto:  m,
		seed:   seed,
		rng:    randsrc.NewSeeded(randsrc.Derive(seed, 0x16E1)),
		ledger: privacy.NewLedger(m.epsInf, m.k),
	}
}

type lgrrClient struct {
	proto  *LGRR
	seed   uint64
	rng    *randsrc.Rand
	ledger *privacy.Ledger
}

// reportValue runs one round: memoized PRR (a PRF of the value) then a
// fresh IRR round, charging the ledger.
//
//loloha:noalloc
func (cl *lgrrClient) reportValue(v int) int {
	cl.Charge(v)
	memo := cl.proto.prr.PerturbWord(v,
		randsrc.Derive(cl.seed, uint64(v), 1),
		randsrc.Derive(cl.seed, uint64(v), 2))
	return cl.proto.irr.Perturb(memo, cl.rng)
}

// AppendReport implements Client: the sanitized value straight into
// wire bytes.
//
//loloha:noalloc
func (cl *lgrrClient) AppendReport(dst []byte, v int) []byte {
	return freqoracle.AppendGRRReport(dst, cl.reportValue(v), cl.proto.k)
}

// WireRegistration implements Client: L-GRR needs no enrollment
// metadata.
func (cl *lgrrClient) WireRegistration() Registration { return Registration{} }

// Charge implements Client.
//
//loloha:noalloc
func (cl *lgrrClient) Charge(v int) {
	if v < 0 || v >= cl.proto.k {
		panic(fmt.Sprintf("longitudinal: L-GRR value %d outside [0,%d)", v, cl.proto.k))
	}
	cl.ledger.Charge(v)
}

// PrivacySpent implements Client.
func (cl *lgrrClient) PrivacySpent() float64 { return cl.ledger.Spent() }

type lgrrAggregator struct {
	Tally
	proto *LGRR
}

// NewAggregator implements Protocol.
func (m *LGRR) NewAggregator() Aggregator {
	return &lgrrAggregator{proto: m, Tally: NewTally(m.k)}
}

// Fork implements Aggregator.
func (a *lgrrAggregator) Fork() Aggregator {
	return a.proto.NewAggregator()
}

// Merge implements Aggregator.
func (a *lgrrAggregator) Merge(other Aggregator) {
	o, ok := other.(*lgrrAggregator)
	if !ok || o.proto != a.proto {
		panic(fmt.Sprintf("longitudinal: L-GRR aggregator cannot merge %T", other))
	}
	a.Absorb(&o.Tally)
}

// EndRound implements Aggregator.
func (a *lgrrAggregator) EndRound() []float64 {
	defer a.Reset()
	return a.proto.params.EstimateAllL(a.Counts(), a.N)
}

// EstimateDomain implements Aggregator.
func (a *lgrrAggregator) EstimateDomain() int { return a.proto.k }
