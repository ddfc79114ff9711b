// Package core implements the paper's primary contribution: the LOLOHA
// (LOngitudinal LOcal HAshing) protocol family for frequency monitoring of
// evolving data under local differential privacy.
//
// A LOLOHA client (Algorithm 1) draws one universal hash function
// H : V → [0..g) for its lifetime, hashes each value, memoizes a GRR(ε∞)
// response per *hash cell* (PRR step) and re-randomizes the memoized
// response with GRR(ε_IRR) each round (IRR step). Because memoization is
// per hash cell rather than per value, the worst-case longitudinal privacy
// loss is g·ε∞ (Theorem 3.5) instead of the k·ε∞ of RAPPOR-style protocols,
// a reduction of k/g.
//
// The server (Algorithm 2) counts, for each candidate value v, the users
// whose report lands in their hash of v and inverts the two sanitization
// rounds with the Eq. (3) estimator using q′₁ = 1/g.
//
// Two named configurations: BiLOLOHA (g = 2, strongest longitudinal
// protection) and OLOLOHA (g from the closed-form optimum of Eq. (6),
// best utility).
package core

import (
	"fmt"
	"slices"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/privacy"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// Protocol is a configured LOLOHA instance (both client and server side).
type Protocol struct {
	name         string
	k, g         int
	epsInf, eps1 float64
	epsIRR       float64
	family       hashfamily.Family
	prr          *freqoracle.GRR // GRR(ε∞) over [0..g)
	irr          *freqoracle.GRR // GRR(ε_IRR) over [0..g)
	params       longitudinal.ChainParams
	cacheSupport bool
}

// Option customizes a Protocol.
type Option func(*config)

type config struct {
	family       hashfamily.Family
	cacheSupport bool
	exactIRR     bool
	name         string
}

// WithFamily selects the universal hash family (default: SplitMix).
func WithFamily(f hashfamily.Family) Option {
	return func(c *config) { c.family = f }
}

// WithExactIRRCalibration switches the IRR budget from the paper's
// Algorithm 1 formula (exact for g = 2, conservative for g > 2) to the
// exact g-ary calibration of longitudinal.ExactEpsIRR. The result is
// slightly less IRR noise — and hence lower variance — at the same ε1
// guarantee. Kept as an option so default behaviour reproduces the paper.
func WithExactIRRCalibration() Option {
	return func(c *config) { c.exactIRR = true }
}

// WithoutSupportCache disables the aggregator's per-user hash cache. The
// cache keeps ⌈log₂g⌉·k/8 bytes per user — each user's hash as packed
// bit-planes — and replaces k hash evaluations per report with
// ⌈log₂g⌉·k/64 word operations; disable it for huge cohorts.
func WithoutSupportCache() Option {
	return func(c *config) { c.cacheSupport = false }
}

func withName(name string) Option {
	return func(c *config) { c.name = name }
}

// New returns a LOLOHA protocol over domain size k with reduced domain g,
// longitudinal budget epsInf and first-report budget eps1 (0 < eps1 < epsInf).
func New(k, g int, epsInf, eps1 float64, opts ...Option) (*Protocol, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: LOLOHA needs k >= 2, got %d", k)
	}
	if g < 2 {
		return nil, fmt.Errorf("core: LOLOHA needs g >= 2, got %d", g)
	}
	cfg := config{cacheSupport: true, name: "LOLOHA"}
	for _, o := range opts {
		o(&cfg)
	}
	var epsIRR float64
	var err error
	if cfg.exactIRR {
		epsIRR, err = longitudinal.ExactEpsIRR(epsInf, eps1, g)
	} else {
		epsIRR, err = longitudinal.EpsIRR(epsInf, eps1)
	}
	if err != nil {
		return nil, err
	}
	if cfg.family == nil {
		cfg.family = hashfamily.NewSplitMixFamily(g)
	}
	if fg := cfg.family.FromSeed(0).G(); fg != g {
		return nil, fmt.Errorf("core: hash family maps to [0..%d), protocol needs g=%d", fg, g)
	}
	prr, err := freqoracle.NewGRR(g, epsInf)
	if err != nil {
		return nil, err
	}
	irr, err := freqoracle.NewGRR(g, epsIRR)
	if err != nil {
		return nil, err
	}
	return &Protocol{
		name:   cfg.name,
		k:      k,
		g:      g,
		epsInf: epsInf,
		eps1:   eps1,
		epsIRR: epsIRR,
		family: cfg.family,
		prr:    prr,
		irr:    irr,
		params: longitudinal.ChainParams{
			P1: prr.Params().P,
			Q1: 1 / float64(g), // q′₁ of Algorithm 2
			P2: irr.Params().P,
			Q2: irr.Params().Q,
		},
		cacheSupport: cfg.cacheSupport,
	}, nil
}

// NewBinary returns BiLOLOHA: g = 2, the strongest longitudinal protection
// (worst case 2·ε∞ on the users' values).
func NewBinary(k int, epsInf, eps1 float64, opts ...Option) (*Protocol, error) {
	return New(k, 2, epsInf, eps1, append(opts, withName("BiLOLOHA"))...)
}

// NewOptimal returns OLOLOHA: g chosen by the closed form of Eq. (6) to
// minimize the approximate variance V*.
func NewOptimal(k int, epsInf, eps1 float64, opts ...Option) (*Protocol, error) {
	return New(k, OptimalG(epsInf, eps1), epsInf, eps1, append(opts, withName("OLOLOHA"))...)
}

// Name returns the configured protocol name (LOLOHA, BiLOLOHA or OLOLOHA).
func (p *Protocol) Name() string { return p.name }

// K returns the original domain size.
func (p *Protocol) K() int { return p.k }

// G returns the reduced domain size.
func (p *Protocol) G() int { return p.g }

// EpsInf returns the longitudinal budget ε∞.
func (p *Protocol) EpsInf() float64 { return p.epsInf }

// Eps1 returns the first-report budget ε1.
func (p *Protocol) Eps1() float64 { return p.eps1 }

// EpsIRR returns the derived instantaneous-round budget of Algorithm 1.
func (p *Protocol) EpsIRR() float64 { return p.epsIRR }

// Params returns the server-side chain probabilities (with q′₁ = 1/g).
func (p *Protocol) Params() longitudinal.ChainParams { return p.params }

// LongitudinalBudget returns the worst-case privacy loss on the users'
// values, g·ε∞ (Theorem 3.5).
func (p *Protocol) LongitudinalBudget() float64 { return float64(p.g) * p.epsInf }

// ApproxVariance returns V* (Eq. (5)) with the Algorithm 2 parameters.
func (p *Protocol) ApproxVariance(n int) float64 { return p.params.ApproxVariance(n) }

// SteadyReportBits implements longitudinal.Protocol: ⌈log₂ g⌉ bits per
// round (Table 1).
func (p *Protocol) SteadyReportBits() int {
	bits := 0
	for 1<<bits < p.g {
		bits++
	}
	return bits
}

// ---------------------------------------------------------------------------
// Client side (Algorithm 1).

// Client is a single user's LOLOHA state.
type Client struct {
	proto  *Protocol
	hash   hashfamily.Hash
	seed   uint64
	rng    *randsrc.Rand
	ledger *privacy.Ledger
}

// NewClient implements longitudinal.Protocol. The seed determines the hash
// choice, the memoized PRR responses and the IRR noise stream.
func (p *Protocol) NewClient(seed uint64) longitudinal.Client {
	return p.newClient(seed)
}

func (p *Protocol) newClient(seed uint64) *Client {
	rng := randsrc.NewSeeded(randsrc.Derive(seed, 0x10104A))
	return &Client{
		proto:  p,
		hash:   p.family.New(rng),
		seed:   seed,
		rng:    rng,
		ledger: privacy.NewLedger(p.epsInf, p.g),
	}
}

// HashSeed identifies the client's hash function; it is sent to the server
// once ("Send H", Algorithm 1 line 2) as part of the first report.
func (c *Client) HashSeed() uint64 { return c.hash.Seed() }

// reportCell runs one round — hash, memoized PRR, fresh IRR — and
// returns the sanitized hash cell.
//
//loloha:noalloc
func (c *Client) reportCell(v int) int {
	if v < 0 || v >= c.proto.k {
		panic(fmt.Sprintf("core: LOLOHA value %d outside [0,%d)", v, c.proto.k))
	}
	x := c.hash.Index(v) // hash step
	c.ledger.Charge(x)   // a new cell consumes ε∞ (Theorem 3.5 ledger)
	memo := c.proto.prr.PerturbWord(x,
		randsrc.Derive(c.seed, uint64(x), 1),
		randsrc.Derive(c.seed, uint64(x), 2)) // PRR step, memoized by PRF
	return c.proto.irr.Perturb(memo, c.rng) // IRR step
}

// AppendReport implements longitudinal.Client: the sanitized cell
// straight into wire bytes, zero allocations when dst has capacity.
//
//loloha:noalloc
func (c *Client) AppendReport(dst []byte, v int) []byte {
	return freqoracle.AppendGRRReport(dst, c.reportCell(v), c.proto.g)
}

// WireRegistration implements longitudinal.Client: the hash seed
// the server resolves the client's hash function from (Algorithm 1,
// "Send H").
func (c *Client) WireRegistration() longitudinal.Registration {
	return longitudinal.Registration{HashSeed: c.hash.Seed()}
}

// Charge implements longitudinal.Client: it advances the privacy ledger as
// AppendReport would, without the PRR/IRR work.
//
//loloha:noalloc
func (c *Client) Charge(v int) {
	if v < 0 || v >= c.proto.k {
		panic(fmt.Sprintf("core: LOLOHA value %d outside [0,%d)", v, c.proto.k))
	}
	c.ledger.Charge(c.hash.Index(v))
}

// PrivacySpent implements longitudinal.Client: ε̌ = ε∞ · (distinct hash
// cells used), capped at g·ε∞.
func (c *Client) PrivacySpent() float64 { return c.ledger.Spent() }

// Report is a decoded LOLOHA round payload: the sanitized hash cell X,
// with the hash seed the user registered (only the cell travels each
// round in steady state).
type Report struct {
	HashSeed uint64
	X        int
}

// DecodeReport reads a steady-state LOLOHA round payload. The hash seed is
// the user's registration metadata (sent once, Algorithm 1 line 2); g is
// the protocol's reduced domain size.
func DecodeReport(src []byte, g int, hashSeed uint64) (Report, []byte, error) {
	x, rest, err := freqoracle.DecodeGRRReport(src, g)
	if err != nil {
		return Report{}, nil, err
	}
	return Report{HashSeed: hashSeed, X: x}, rest, nil
}

// ---------------------------------------------------------------------------
// Server side (Algorithm 2).

// Aggregator collects one round of LOLOHA reports and estimates the k-bin
// histogram. It registers each user's hash function the first time it sees
// the user and (optionally) caches it as bit-planes: plane b holds bit b of
// H_u(v) at position v, so the support row {v : H_u(v) = x} of a report x
// is the AND over planes of plane b XNOR bit b of x — k/64 words per plane
// instead of k hash evaluations or byte compares. The round lifecycle is
// the embedded longitudinal.Round; the hash planes are all it adds.
type Aggregator struct {
	longitudinal.Round
	proto    *Protocol
	hashBits int                     // ⌈log₂ g⌉: bit-planes per user
	hashes   map[int]hashfamily.Hash // userID -> H_u, without the cache
	slots    map[int]int32           // userID -> the user's slot in masks, with the cache
	masks    []uint64                // slot s holds its planes at [s·hashBits·len(row), …), plane by plane
	row      []uint64                // addCell's support-row scratch
}

// NewAggregator implements longitudinal.Protocol.
func (p *Protocol) NewAggregator() longitudinal.Aggregator {
	return p.NewServer()
}

// NewServer returns an Aggregator with its concrete type.
func (p *Protocol) NewServer() *Aggregator {
	a := &Aggregator{
		Round:    *longitudinal.NewRound(p, p.k),
		proto:    p,
		hashBits: p.SteadyReportBits(),
		row:      make([]uint64, longitudinal.RowWords(p.k)),
	}
	if p.cacheSupport {
		a.slots = make(map[int]int32)
	} else {
		a.hashes = make(map[int]hashfamily.Hash)
	}
	return a
}

// addCell counts support C(v) for every candidate value (the n·k server
// loop of Table 1): it builds the support row of hash cell x for the user
// registered with hashSeed and adds it to the tally. x is in [0..g).
//
//loloha:noalloc
func (a *Aggregator) addCell(userID int, hashSeed uint64, x int) {
	row := a.row
	if a.slots != nil {
		slot, ok := a.slots[userID]
		//loloha:alloc-ok cold: the user's hash planes are built once, on first report
		if !ok {
			slot = a.addPlanes(userID, hashSeed)
		}
		nw := len(row)
		planes := a.masks[int(slot)*a.hashBits*nw:][:a.hashBits*nw]
		for w := range row {
			support := ^uint64(0)
			for b := 0; b < a.hashBits; b++ {
				// XNOR: the positions whose hash bit b equals x's.
				support &= planes[b*nw+w] ^ (uint64(x>>b&1) - 1)
			}
			row[w] = support
		}
	} else {
		h, ok := a.hashes[userID]
		//loloha:alloc-ok cold: the user's hash is resolved once, on first report
		if !ok {
			h = a.proto.family.FromSeed(hashSeed)
			a.hashes[userID] = h
		}
		clear(row)
		for v := 0; v < a.proto.k; v++ {
			if h.Index(v) == x {
				row[v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
	a.AddRow(row)
	a.N++
}

// addPlanes resolves the user's hash from its seed, appends its bit-planes
// to masks and returns its slot.
func (a *Aggregator) addPlanes(userID int, seed uint64) int32 {
	h := a.proto.family.FromSeed(seed)
	nw, stride := len(a.row), a.hashBits*len(a.row)
	off := len(a.masks)
	a.masks = slices.Grow(a.masks, stride)[:off+stride]
	planes := a.masks[off:]
	clear(planes)
	for v := 0; v < a.proto.k; v++ {
		hv := h.Index(v)
		for b := 0; b < a.hashBits; b++ {
			planes[b*nw+v>>6] |= uint64(hv>>b&1) << (uint(v) & 63)
		}
	}
	slot := int32(off / stride)
	a.slots[userID] = slot
	return slot
}

// Estimate implements longitudinal.Protocol: Eq. (3) with q′₁ = 1/g.
func (p *Protocol) Estimate(counts []int64, n int) []float64 {
	return p.params.EstimateAllL(counts, n)
}
