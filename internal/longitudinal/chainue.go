package longitudinal

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/privacy"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// UE chain calibrations. Naming follows the paper's reference [5]: the
// first letter(s) name the IRR is appended, e.g. L-OSUE chains OUE in the
// PRR step with SUE in the IRR step.

// LSUEParams calibrates RAPPOR (L-SUE): SUE in both steps (§2.4.1).
// p1 = e^{ε∞/2}/(e^{ε∞/2}+1); p2 solves the symmetric-IRR chain so the
// first report is exactly ε1-LDP: p2 = (ab−1)/((b+1)(a−1)) with
// a = e^{ε∞/2}, b = e^{ε1/2}.
func LSUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	a := math.Exp(epsInf / 2)
	b := math.Exp(eps1 / 2)
	p1 := a / (a + 1)
	p2 := (a*b - 1) / ((b + 1) * (a - 1))
	return ChainParams{P1: p1, Q1: 1 - p1, P2: p2, Q2: 1 - p2}, nil
}

// LOSUEParams calibrates L-OSUE (§2.4.2): OUE in the PRR step
// (p1 = 1/2, q1 = 1/(e^{ε∞}+1)) and SUE in the IRR step with
// p2 = (AB−1)/(A−B+AB−1), A = e^{ε∞}, B = e^{ε1}.
func LOSUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	ea := math.Exp(epsInf)
	eb := math.Exp(eps1)
	p2 := (ea*eb - 1) / (ea - eb + ea*eb - 1)
	return ChainParams{P1: 0.5, Q1: 1 / (ea + 1), P2: p2, Q2: 1 - p2}, nil
}

// LOUEParams calibrates L-OUE: OUE in both steps. The IRR keeps p2 = 1/2
// and q2 is solved numerically so the first report is ε1-LDP. Not every
// (ε∞, ε1) pair is feasible with a fixed p2 = 1/2; infeasible pairs return
// an error.
func LOUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	ea := math.Exp(epsInf)
	return solveOUEStyleIRR(ChainParams{P1: 0.5, Q1: 1 / (ea + 1)}, eps1)
}

// LSOUEParams calibrates L-SOUE: SUE in the PRR step, OUE in the IRR step
// (p2 = 1/2, q2 solved numerically). Infeasible pairs return an error.
func LSOUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	a := math.Exp(epsInf / 2)
	p1 := a / (a + 1)
	return solveOUEStyleIRR(ChainParams{P1: p1, Q1: 1 - p1}, eps1)
}

// solveOUEStyleIRR fixes p2 = 1/2 and bisects q2 ∈ (0, 1/2) so that the
// chained first report satisfies exactly eps1. The chain's ε is strictly
// decreasing in q2 (more IRR noise, less leakage), so bisection converges;
// if even q2 → 0 cannot reach eps1 the pair is infeasible.
func solveOUEStyleIRR(prr ChainParams, eps1 float64) (ChainParams, error) {
	prr.P2 = 0.5
	epsAt := func(q2 float64) float64 {
		c := prr
		c.Q2 = q2
		return UEEpsOfChain(c)
	}
	const floor = 1e-12
	if epsAt(floor) < eps1 {
		return ChainParams{}, fmt.Errorf(
			"longitudinal: eps1=%v infeasible for OUE-style IRR (max %v); use a smaller eps1 or an SUE-style IRR",
			eps1, epsAt(floor))
	}
	lo, hi := floor, 0.5-floor // eps is ~0 at q2 = p2 = 1/2
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if epsAt(mid) > eps1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	prr.Q2 = (lo + hi) / 2
	return prr, nil
}

// ---------------------------------------------------------------------------
// The chained-UE protocol (client + aggregator).

// ChainUE is a longitudinal protocol chaining two unary-encoding rounds.
// RAPPOR, L-OSUE, L-OUE and L-SOUE are instances differing only in their
// ChainParams.
type ChainUE struct {
	name         string
	k            int
	params       ChainParams
	epsInf, eps1 float64
	// sampler draws the IRR layer: every bit flips with q2, memoized
	// PRR-one bits with p2 — skip-sampled, with the PRR mask as its
	// upgraded positions (see freqoracle.ReportSampler for the canonical
	// randomness contract).
	sampler freqoracle.ReportSampler
}

// NewChainUE builds a chained-UE protocol from explicit parameters;
// normally constructed through NewRAPPOR, NewLOSUE, NewLOUE or NewLSOUE.
func NewChainUE(name string, k int, params ChainParams, epsInf, eps1 float64) (*ChainUE, error) {
	if k < 2 {
		return nil, fmt.Errorf("longitudinal: %s needs k >= 2, got %d", name, k)
	}
	if !(params.P1 > params.Q1) || !(params.P2 > params.Q2) {
		return nil, fmt.Errorf("longitudinal: %s mis-calibrated: %+v", name, params)
	}
	sampler, err := freqoracle.NewReportSampler(k, params.P2, params.Q2)
	if err != nil {
		return nil, fmt.Errorf("longitudinal: %s mis-calibrated: %w", name, err)
	}
	return &ChainUE{name: name, k: k, params: params, epsInf: epsInf, eps1: eps1, sampler: sampler}, nil
}

// NewRAPPOR returns the utility-oriented RAPPOR protocol (L-SUE).
func NewRAPPOR(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LSUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("RAPPOR", k, p, epsInf, eps1)
}

// NewLOSUE returns the optimized L-OSUE protocol.
func NewLOSUE(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LOSUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("L-OSUE", k, p, epsInf, eps1)
}

// NewLOUE returns the L-OUE protocol (OUE chained with OUE).
func NewLOUE(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LOUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("L-OUE", k, p, epsInf, eps1)
}

// NewLSOUE returns the L-SOUE protocol (SUE chained with OUE).
func NewLSOUE(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LSOUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("L-SOUE", k, p, epsInf, eps1)
}

// Name implements Protocol.
func (c *ChainUE) Name() string { return c.name }

// K implements Protocol.
func (c *ChainUE) K() int { return c.k }

// Params returns the calibrated chain probabilities.
func (c *ChainUE) Params() ChainParams { return c.params }

// EpsInf returns the longitudinal budget ε∞.
func (c *ChainUE) EpsInf() float64 { return c.epsInf }

// Eps1 returns the first-report budget ε1.
func (c *ChainUE) Eps1() float64 { return c.eps1 }

// ApproxVariance returns Eq. (5) for this chain with n users.
func (c *ChainUE) ApproxVariance(n int) float64 { return c.params.ApproxVariance(n) }

// SteadyReportBits implements Protocol: a UE report is k bits per round.
func (c *ChainUE) SteadyReportBits() int { return c.k }

// Spec implements Protocol. Chains built through NewChainUE with a
// custom name yield a spec whose family may not be registered; the four
// standard calibrations round-trip.
func (c *ChainUE) Spec() ProtocolSpec {
	return ProtocolSpec{Family: c.name, K: c.k, EpsInf: c.epsInf, Eps1: c.eps1}
}

// NewClient implements Protocol.
func (c *ChainUE) NewClient(seed uint64) Client {
	return &chainUEClient{
		proto:  c,
		seed:   seed,
		rng:    randsrc.NewSeeded(randsrc.Derive(seed, 0xC11E57)),
		nw:     freqoracle.MaskWords(c.k),
		slots:  make(map[int]int),
		p1T:    randsrc.BernoulliThreshold(c.params.P1),
		q1T:    randsrc.BernoulliThreshold(c.params.Q1),
		ledger: privacy.NewLedger(c.epsInf, c.k),
	}
}

// prrCacheCap bounds the number of memoized PRR masks a client keeps.
// Evicting is always safe: a mask is a pure PRF of (seed, value) and
// recomputes bit-identically, so the cap trades recompute time for memory
// on clients that roam across many distinct values.
const prrCacheCap = 256

type chainUEClient struct {
	proto *ChainUE
	seed  uint64
	rng   *randsrc.Rand
	// masks holds the memoized PRR encodings of recently reported values,
	// nw words each: bit i of a value's mask is its PRR bit i, the packed
	// form the IRR sampler consumes directly. slots maps a value to the
	// index of its mask.
	masks    []uint64
	nw       int
	slots    map[int]int
	p1T, q1T uint64
	ledger   *privacy.Ledger
}

// maskOf returns the memoized PRR mask of value v, materializing it on
// first use or after eviction.
//
//loloha:noalloc
func (cl *chainUEClient) maskOf(v int) []uint64 {
	s, ok := cl.slots[v]
	if !ok {
		s = cl.materialize(v)
	}
	off := s * cl.nw
	return cl.masks[off : off+cl.nw : off+cl.nw]
}

// materialize charges the ledger for v (panicking on an out-of-range
// value), draws its PRR encoding into a new mask slot and returns the
// slot. Bit i is the PRF draw StreamWord(Derive(seed, v), i) under the q1
// threshold — p1 at i = v — packed 64 positions per store without a
// data-dependent branch. A full cache is emptied and its storage reused.
//
//loloha:noalloc
func (cl *chainUEClient) materialize(v int) int {
	cl.Charge(v)
	if len(cl.slots) >= prrCacheCap {
		clear(cl.slots)
		cl.masks = cl.masks[:0]
	}
	s := len(cl.masks) / cl.nw
	//loloha:alloc-ok cold: one mask per distinct value, storage capped by prrCacheCap
	cl.masks = append(cl.masks, make([]uint64, cl.nw)...)
	m := cl.masks[s*cl.nw : (s+1)*cl.nw]
	base := randsrc.Derive(cl.seed, uint64(v))
	k, q1T := cl.proto.k, cl.q1T
	for wi := range m {
		lo := wi * 64
		n := min(64, k-lo)
		var w uint64
		for b := range n {
			_, one := bits.Sub64(randsrc.StreamWord(base, lo+b), q1T, 0)
			w |= one << (uint(b) & 63)
		}
		m[wi] = w
	}
	_, hot := bits.Sub64(randsrc.StreamWord(base, v), cl.p1T, 0)
	m[v>>6] = m[v>>6]&^(1<<(uint(v)&63)) | hot<<(uint(v)&63)
	cl.slots[v] = s
	return s
}

// AppendReport implements Client: one sampler round anchored at
// the next word of the client's stream, with the memoized PRR mask as the
// upgraded positions. The ledger is charged when the mask materializes: a
// cached mask means v was charged already. Steady state (warm caches,
// capacity in dst) performs zero allocations.
//
//loloha:noalloc
func (cl *chainUEClient) AppendReport(dst []byte, v int) []byte {
	mask := cl.maskOf(v)
	return cl.proto.sampler.AppendReport(dst, cl.rng.Uint64(), mask)
}

// WireRegistration implements Client: chained UE needs no
// enrollment metadata.
func (cl *chainUEClient) WireRegistration() Registration { return Registration{} }

// Charge implements Client.
//
//loloha:noalloc
func (cl *chainUEClient) Charge(v int) {
	if v < 0 || v >= cl.proto.k {
		panic(fmt.Sprintf("longitudinal: %s value %d outside [0,%d)", cl.proto.name, v, cl.proto.k))
	}
	cl.ledger.Charge(v)
}

// PrivacySpent implements Client.
func (cl *chainUEClient) PrivacySpent() float64 { return cl.ledger.Spent() }

// chainUEAggregator tallies one round of UE reports.
type chainUEAggregator struct {
	Tally
	proto *ChainUE
	row   []uint64 // TallyCell's payload words
}

// NewAggregator implements Protocol.
func (c *ChainUE) NewAggregator() Aggregator {
	return &chainUEAggregator{proto: c, Tally: NewTally(c.k), row: make([]uint64, RowWords(c.k))}
}

// Fork implements Aggregator.
func (a *chainUEAggregator) Fork() Aggregator {
	return a.proto.NewAggregator()
}

// Merge implements Aggregator.
func (a *chainUEAggregator) Merge(other Aggregator) {
	o, ok := other.(*chainUEAggregator)
	if !ok || o.proto != a.proto {
		panic(fmt.Sprintf("longitudinal: %s aggregator cannot merge %T", a.proto.name, other))
	}
	a.Absorb(&o.Tally)
}

// EndRound implements Aggregator.
func (a *chainUEAggregator) EndRound() []float64 {
	defer a.Reset()
	return a.proto.params.EstimateAllL(a.Counts(), a.N)
}

// EstimateDomain implements Aggregator.
func (a *chainUEAggregator) EstimateDomain() int { return a.proto.k }
