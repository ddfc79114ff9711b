package freqoracle

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// UE is the one-shot Unary Encoding protocol (§2.3.3): the input v is
// one-hot encoded into k bits, then every bit is randomized independently —
// ones survive with probability p, zeros are raised with probability q.
// SUE (symmetric, RAPPOR's choice) and OUE (optimal) differ only in (p, q).
type UE struct {
	k       int
	params  Params
	eps     float64
	sampler ReportSampler
}

// NewUE returns a UE mechanism with explicit parameters; use NewSUE/NewOUE
// for the standard calibrations.
func NewUE(k int, params Params, eps float64) (*UE, error) {
	if k < 2 {
		return nil, fmt.Errorf("freqoracle: UE needs k >= 2, got %d", k)
	}
	if !params.Valid() {
		return nil, fmt.Errorf("freqoracle: invalid UE params %+v", params)
	}
	sampler, err := NewReportSampler(k, params.P, params.Q)
	if err != nil {
		return nil, err
	}
	return &UE{
		k:       k,
		params:  params,
		eps:     eps,
		sampler: sampler,
	}, nil
}

// NewSUE returns Symmetric Unary Encoding at privacy level eps.
func NewSUE(k int, eps float64) (*UE, error) {
	params, err := SUEParams(eps)
	if err != nil {
		return nil, err
	}
	return NewUE(k, params, eps)
}

// NewOUE returns Optimal Unary Encoding at privacy level eps.
func NewOUE(k int, eps float64) (*UE, error) {
	params, err := OUEParams(eps)
	if err != nil {
		return nil, err
	}
	return NewUE(k, params, eps)
}

// K returns the domain size.
func (m *UE) K() int { return m.k }

// Eps returns the privacy level ε.
func (m *UE) Eps() float64 { return m.eps }

// Params returns the calibrated (p, q).
func (m *UE) Params() Params { return m.params }

// Privatize one-hot encodes v and randomizes every bit: one round of the
// canonical ReportSampler contract with ones = {v}, skip-sampled. It draws
// a single anchor word from r per call, so report cost no longer scales the
// caller's stream by k.
func (m *UE) Privatize(v int, r *randsrc.Rand) *bitset.Bitset {
	if v < 0 || v >= m.k {
		panic(fmt.Sprintf("freqoracle: UE input %d outside [0,%d)", v, m.k))
	}
	ones := make([]uint64, MaskWords(m.k))
	ones[v>>6] = 1 << (uint(v) & 63)
	payload := m.sampler.AppendReport(make([]byte, 0, UEPayloadBytes(m.k)), r.Uint64(), ones)
	out, _, err := DecodeUEReport(payload, m.k)
	if err != nil {
		panic(err) // impossible: the payload is exactly one well-formed report
	}
	return out
}

// UEAggregator sums the reported bit vectors; C(v) is the number of
// reports whose bit v is set.
type UEAggregator struct {
	mech   *UE
	counts []int64
	n      int
}

// NewUEAggregator returns an empty aggregator for the mechanism.
func NewUEAggregator(m *UE) *UEAggregator {
	return &UEAggregator{mech: m, counts: make([]int64, m.k)}
}

// Add tallies one report. It panics if the report length does not match k.
func (a *UEAggregator) Add(rep *bitset.Bitset) {
	if rep.Len() != a.mech.k {
		panic(fmt.Sprintf("freqoracle: UE report has %d bits, want %d", rep.Len(), a.mech.k))
	}
	rep.AccumulateInto(a.counts)
	a.n++
}

// N returns the number of reports tallied.
func (a *UEAggregator) N() int { return a.n }

// Estimate returns the unbiased frequency estimates for all k values.
func (a *UEAggregator) Estimate() []float64 {
	return EstimateAll(a.counts, a.n, a.mech.params)
}
