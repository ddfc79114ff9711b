package longitudinal

import (
	"fmt"
	"math"

	"github.com/loloha-ldp/loloha/internal/domain"
	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/privacy"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// DBitFlipPM is Microsoft's dBitFlipPM protocol (§2.4.4): the ordinal
// domain [0..k) is generalized into b equal-width buckets; each user fixes
// d sampled buckets and memoizes one randomized bit per (input bucket,
// sampled bucket) pair at level ε∞. There is no IRR round, which is what
// makes bucket changes detectable (Table 2).
type DBitFlipPM struct {
	k, b, d int
	epsInf  float64
	p, q    float64
	z       domain.Bucketizer
	// sampler draws the memoized d-bit response for one input bucket:
	// each sampled slot flips with q, the slot holding the input bucket
	// (if any) with p — skip-sampled. Anchored at the
	// bucket's PRF base, the draw is a pure function of (seed, bucket),
	// which is exactly the memoization contract.
	sampler freqoracle.ReportSampler
}

// NewDBitFlipPM returns a dBitFlipPM protocol over domain size k with b
// buckets, d sampled bits per user and longitudinal budget epsInf. The
// bounds k >= 2, 2 <= b <= k and 1 <= d <= b are all validated here with
// protocol-level errors, so a mis-derived bucket count (e.g. b = ⌊k/4⌋ on
// a tiny domain) fails at construction instead of misbehaving downstream.
func NewDBitFlipPM(k, b, d int, epsInf float64) (*DBitFlipPM, error) {
	if k < 2 {
		return nil, fmt.Errorf("longitudinal: dBitFlipPM needs k >= 2, got k=%d", k)
	}
	if b < 2 || b > k {
		return nil, fmt.Errorf("longitudinal: dBitFlipPM needs 2 <= b <= k, got b=%d k=%d", b, k)
	}
	if d < 1 || d > b {
		return nil, fmt.Errorf("longitudinal: dBitFlipPM needs 1 <= d <= b, got d=%d b=%d", d, b)
	}
	z, err := domain.NewBucketizer(k, b)
	if err != nil {
		return nil, err
	}
	if !(epsInf > 0) || math.IsInf(epsInf, 0) {
		return nil, fmt.Errorf("longitudinal: dBitFlipPM needs finite epsInf > 0, got %v", epsInf)
	}
	e := math.Exp(epsInf / 2)
	p := e / (e + 1)
	sampler, err := freqoracle.NewReportSampler(d, p, 1-p)
	if err != nil {
		return nil, fmt.Errorf("longitudinal: dBitFlipPM mis-calibrated: %w", err)
	}
	return &DBitFlipPM{
		k: k, b: b, d: d,
		epsInf: epsInf,
		p:      p, q: 1 - p,
		z:       z,
		sampler: sampler,
	}, nil
}

// Name implements Protocol.
func (m *DBitFlipPM) Name() string {
	if m.d == 1 {
		return "1BitFlipPM"
	}
	if m.d == m.b {
		return "bBitFlipPM"
	}
	return fmt.Sprintf("%dBitFlipPM", m.d)
}

// K implements Protocol.
func (m *DBitFlipPM) K() int { return m.k }

// B returns the bucket count.
func (m *DBitFlipPM) B() int { return m.b }

// D returns the number of sampled bits per user.
func (m *DBitFlipPM) D() int { return m.d }

// Bucketizer exposes the generalization map (the Table 2 attack and the
// simulation need it to fold ground truth).
func (m *DBitFlipPM) Bucketizer() domain.Bucketizer { return m.z }

// ApproxVariance is the f→0 estimator variance
// b·e^{ε∞/2} / (n·d·(e^{ε∞/2}−1)²) — the §4 closed form, derived from
// Eq. (1) with n replaced by nd/b.
func (m *DBitFlipPM) ApproxVariance(n int) float64 {
	e := math.Exp(m.epsInf / 2)
	return float64(m.b) * e / (float64(n) * float64(m.d) * (e - 1) * (e - 1))
}

// SteadyReportBits implements Protocol: d bits per round (Table 1).
func (m *DBitFlipPM) SteadyReportBits() int { return m.d }

// Spec implements Protocol. The family is always the generic
// "dBitFlipPM" with explicit b and d — the canonical form the 1BitFlipPM /
// bBitFlipPM convenience families normalize to.
func (m *DBitFlipPM) Spec() ProtocolSpec {
	return ProtocolSpec{Family: "dBitFlipPM", K: m.k, B: m.b, D: m.d, EpsInf: m.epsInf}
}

// NewClient implements Protocol.
func (m *DBitFlipPM) NewClient(seed uint64) Client {
	r := randsrc.NewSeeded(randsrc.Derive(seed, 0xDB17))
	sampled := r.SampleWithoutReplacement(m.b, m.d)
	return &dBitClient{
		proto:   m,
		seed:    seed,
		sampled: sampled,
		state:   make(map[int]int, m.d+1),
		memo:    make(map[int][]byte, m.d+1),
		ledger:  privacy.NewLedger(m.epsInf, minInt(m.d+1, m.b)),
	}
}

type dBitClient struct {
	proto   *DBitFlipPM
	seed    uint64
	sampled []int
	state   map[int]int
	// memo caches the packed memoized d-bit response per input bucket —
	// dBitFlipPM has no IRR, so after the first materialization a report
	// is a byte copy.
	memo   map[int][]byte
	ledger *privacy.Ledger
}

// baseOf returns the PRF stream anchor of the memoized response for an
// input bucket.
//
//loloha:noalloc
func (cl *dBitClient) baseOf(inputBucket int) uint64 {
	return randsrc.Derive(cl.seed, uint64(inputBucket))
}

// packedOf returns the memoized response for an input bucket, wire-packed
// (bit l of the payload is sampled slot l), drawing it on first use: one
// sampler round anchored at the bucket's PRF base, with the slot holding
// the input bucket (at most one — sampled buckets are distinct) upgraded
// from q to p.
//
//loloha:noalloc
func (cl *dBitClient) packedOf(inputBucket int) []byte {
	if m, ok := cl.memo[inputBucket]; ok {
		return m
	}
	var ones []uint64
	for l, j := range cl.sampled {
		if j == inputBucket {
			//loloha:alloc-ok cold: at most b memoized responses ever materialize per client
			ones = make([]uint64, freqoracle.MaskWords(cl.proto.d))
			ones[l>>6] = 1 << (uint(l) & 63)
			break
		}
	}
	//loloha:alloc-ok cold: at most b memoized responses ever materialize per client
	m := cl.proto.sampler.AppendReport(make([]byte, 0, (cl.proto.d+7)/8), cl.baseOf(inputBucket), ones)
	cl.memo[inputBucket] = m
	return m
}

// AppendReport implements Client: a memoized report is a straight copy
// of the cached packed response — zero allocations once the bucket
// has been seen (at most b materializations ever; unsampled buckets share
// a response *distribution* but are cached per bucket, since each draws
// from its own PRF anchor).
//
//loloha:noalloc
func (cl *dBitClient) AppendReport(dst []byte, v int) []byte {
	cl.Charge(v)
	return append(dst, cl.packedOf(cl.proto.z.Bucket(v))...)
}

// WireRegistration implements Client: the fixed sampled buckets.
func (cl *dBitClient) WireRegistration() Registration {
	return Registration{Sampled: cl.sampled}
}

// Charge implements Client.
//
//loloha:noalloc
func (cl *dBitClient) Charge(v int) {
	if v < 0 || v >= cl.proto.k {
		panic(fmt.Sprintf("longitudinal: dBitFlipPM value %d outside [0,%d)", v, cl.proto.k))
	}
	cl.ledger.Charge(cl.memoStateOf(cl.proto.z.Bucket(v)))
}

// memoStateOf maps an input bucket onto its memoized-state identifier:
// 1+l when it equals sampled bucket l, 0 for "none of the sampled buckets".
// When d == b every bucket is sampled and states are exactly buckets.
//
//loloha:noalloc
func (cl *dBitClient) memoStateOf(bucket int) int {
	if s, ok := cl.state[bucket]; ok {
		return s
	}
	s := 0
	for l, j := range cl.sampled {
		if j == bucket {
			s = 1 + l
			break
		}
	}
	cl.state[bucket] = s
	return s
}

// PrivacySpent implements Client.
func (cl *dBitClient) PrivacySpent() float64 { return cl.ledger.Spent() }

// NewAggregator implements Protocol: one count per bucket.
func (m *DBitFlipPM) NewAggregator() Aggregator { return NewRound(m, m.b) }

// Estimate implements Protocol: Eq. (1) with n replaced by nd/b, since
// each bucket is observed by ~nd/b users (§2.4.4). Estimates are per
// bucket.
func (m *DBitFlipPM) Estimate(counts []int64, n int) []float64 {
	est := make([]float64, len(counts))
	if n == 0 {
		return est
	}
	nEff := float64(n) * float64(m.d) / float64(m.b)
	den := nEff * (m.p - m.q)
	for j, c := range counts {
		est[j] = (float64(c) - nEff*m.q) / den
	}
	return est
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
