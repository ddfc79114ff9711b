// Package loloha is a Go implementation of LOLOHA — "Frequency Estimation
// of Evolving Data Under Local Differential Privacy" (Arcolezi, Pinzón,
// Palamidessi, Gambs; EDBT 2023) — together with the longitudinal LDP
// baselines the paper evaluates against: RAPPOR (L-SUE), L-OSUE, L-OUE,
// L-SOUE, L-GRR and dBitFlipPM, and the one-shot frequency oracles they
// build on (GRR, BLH/OLH, SUE/OUE).
//
// The core abstraction is a Protocol that binds a per-user Client (which
// sanitizes one value per collection round into a wire payload and tracks
// its own longitudinal privacy ledger) to a server-side Aggregator (whose
// support counts the protocol's ColumnarTallier fills from those payloads,
// and which produces a round's unbiased frequency estimates).
//
//	proto, _ := loloha.NewBiLOLOHA(k, 1.0 /* ε∞ */, 0.5 /* ε1 */)
//	stream, _ := loloha.NewStream(proto, loloha.WithCohort(numUsers, seed))
//	for each collection round {
//	    res, _ := stream.Collect(values) // values[u] = user u's current value
//	    use res.Raw                      // the round's frequency estimates
//	}
//
// LOLOHA's guarantee (Theorem 3.5): however long the collection runs and
// however often values change, each user's total privacy loss is bounded
// by g·ε∞, where g ≪ k is the reduced hash domain — against k·ε∞ for
// RAPPOR-style memoization.
package loloha

import (
	"github.com/loloha-ldp/loloha/internal/analysis"
	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/domain"
	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/heavyhitter"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/postprocess"
	"github.com/loloha-ldp/loloha/internal/server"
)

// Client is the per-user side of a longitudinal protocol. See
// internal/longitudinal for the contract.
type Client = longitudinal.Client

// Aggregator is the server side of a longitudinal protocol: a Round, or
// a type that embeds one.
type Aggregator = longitudinal.Aggregator

// Tally is an aggregator's open-round state — support counts plus the
// report count N — with the ExportTally/ImportTally, Absorb and Reset
// bodies every aggregator shares. A tallier adds each report's support
// with AddIndex (one position) or AddRow (a packed 0/1 row over all k
// positions) and increments N.
type Tally = longitudinal.Tally

// Round is the one Aggregator implementation: a Tally plus the protocol
// whose Estimate turns its counts into frequencies. An external protocol
// returns NewRound(p, k) from NewAggregator — or a type embedding the
// Round, when its tallier needs scratch state — and its tallier
// type-asserts the aggregator back to that type.
type Round = longitudinal.Round

// NewRound returns the empty round of one of proto's aggregators over a
// tally of k positions.
func NewRound(proto Protocol, k int) *Round { return longitudinal.NewRound(proto, k) }

// Protocol binds clients and aggregators together.
type Protocol = longitudinal.Protocol

// LOLOHA is the configured protocol of the paper (Algorithms 1 and 2).
type LOLOHA = core.Protocol

// ChainParams carries the two-round probabilities (p1, q1, p2, q2) used by
// the Eq. (3) estimator and the Eq. (4)/(5) variances.
type ChainParams = longitudinal.ChainParams

// ---------------------------------------------------------------------------
// LOLOHA constructors.

// New returns a LOLOHA protocol over domain size k with reduced domain g:
// longitudinal budget epsInf, first-report budget eps1 (0 < eps1 < epsInf).
func New(k, g int, epsInf, eps1 float64) (*LOLOHA, error) {
	return core.New(k, g, epsInf, eps1)
}

// NewBiLOLOHA returns the privacy-tuned variant (g = 2): worst-case
// longitudinal loss 2·ε∞ on the users' values.
func NewBiLOLOHA(k int, epsInf, eps1 float64) (*LOLOHA, error) {
	return core.NewBinary(k, epsInf, eps1)
}

// NewOLOLOHA returns the utility-tuned variant: g minimizes the
// approximate variance (Eq. (6)).
func NewOLOLOHA(k int, epsInf, eps1 float64) (*LOLOHA, error) {
	return core.NewOptimal(k, epsInf, eps1)
}

// OptimalG evaluates the closed-form optimal reduced domain size (Eq. (6)).
func OptimalG(epsInf, eps1 float64) int { return core.OptimalG(epsInf, eps1) }

// ---------------------------------------------------------------------------
// Baseline longitudinal protocols (§2.4).

// NewRAPPOR returns the RAPPOR protocol (SUE chained with SUE).
func NewRAPPOR(k int, epsInf, eps1 float64) (Protocol, error) {
	return longitudinal.NewRAPPOR(k, epsInf, eps1)
}

// NewLOSUE returns L-OSUE (OUE chained with SUE), the optimized
// unary-encoding baseline.
func NewLOSUE(k int, epsInf, eps1 float64) (Protocol, error) {
	return longitudinal.NewLOSUE(k, epsInf, eps1)
}

// NewLOUE returns L-OUE (OUE chained with OUE).
func NewLOUE(k int, epsInf, eps1 float64) (Protocol, error) {
	return longitudinal.NewLOUE(k, epsInf, eps1)
}

// NewLSOUE returns L-SOUE (SUE chained with OUE).
func NewLSOUE(k int, epsInf, eps1 float64) (Protocol, error) {
	return longitudinal.NewLSOUE(k, epsInf, eps1)
}

// NewLGRR returns L-GRR (GRR chained with GRR), best for small domains.
func NewLGRR(k int, epsInf, eps1 float64) (Protocol, error) {
	return longitudinal.NewLGRR(k, epsInf, eps1)
}

// NewDBitFlipPM returns Microsoft's dBitFlipPM over b equal-width buckets
// with d sampled bits per user.
func NewDBitFlipPM(k, b, d int, epsInf float64) (Protocol, error) {
	return longitudinal.NewDBitFlipPM(k, b, d, epsInf)
}

// ---------------------------------------------------------------------------
// Stream: the collection service.

// Stream is the collection service of the library: one configurable,
// thread-safe, multi-round frequency-monitoring pipeline built with
// functional options:
//
//	stream, _ := loloha.NewStream(proto,
//	    loloha.WithShards(8),
//	    loloha.WithPostProcess(loloha.PostSimplex),
//	    loloha.WithHeavyHitters(loloha.HeavyHitterConfig{Threshold: 0.05}),
//	)
//	results := stream.Subscribe()
//	// Wire path: stream.Enroll / stream.Ingest / stream.IngestBatch /
//	// stream.IngestColumnar, then stream.CloseRound() publishes a
//	// RoundResult to results.
//
// Attach in-process simulation clients with WithCohort and drive complete
// rounds with stream.Collect(values). Estimates are bit-identical across
// shard counts and ingestion paths (wire vs cohort, batch vs per-report)
// at a fixed seed. See internal/server for the full contract.
type Stream = server.Stream

// RoundResult is one published collection round: its index, report count,
// raw and post-processed estimates, and heavy-hitter set.
type RoundResult = server.RoundResult

// StreamOption configures a Stream.
type StreamOption = server.Option

// ---------------------------------------------------------------------------
// Columnar batch wire format.

// ColumnarBatch is one decoded columnar report batch: parallel columns
// of user IDs, fixed-stride payload cells and (optionally) enrollment
// registrations, sharing one header. Decode with DecodeColumnar and feed
// to Stream.IngestColumnar; the payload column aliases the source buffer,
// so the batch must be consumed before the buffer is reused.
type ColumnarBatch = longitudinal.ColumnarBatch

// ColumnarWriter builds columnar batches on the producer side. Reset
// keeps configuration and capacity for reuse across rounds.
type ColumnarWriter = longitudinal.ColumnarWriter

// ColumnarTallier tallies a protocol's fixed-stride payloads — loose or
// packed in a columnar batch — straight into an aggregator, with zero
// allocations per report: PayloadStride is the payload size and TallyCell
// adds one payload's report to the aggregator's current round.
type ColumnarTallier = longitudinal.ColumnarTallier

// NewColumnarWriter returns a writer for batches of stride-byte payload
// cells bound to the given protocol spec hash, p.Spec().Hash().
func NewColumnarWriter(specHash uint64, stride int) (*ColumnarWriter, error) {
	return longitudinal.NewColumnarWriter(specHash, stride)
}

// DecodeColumnar parses an encoded columnar batch into b, reusing b's
// columns. The payload column aliases src.
func DecodeColumnar(src []byte, b *ColumnarBatch) error {
	return longitudinal.DecodeColumnar(src, b)
}

// ErrColumnarMismatch reports a columnar batch whose spec hash or payload
// stride does not match the stream's protocol; Stream.IngestColumnar
// rejects the whole batch without tallying any of its rows.
var ErrColumnarMismatch = server.ErrColumnarMismatch

// NewStream returns a collection service for the protocol.
func NewStream(proto Protocol, opts ...StreamOption) (*Stream, error) {
	return server.NewStream(proto, opts...)
}

// WithShards sets the ingestion stripe count and, with WithCohort, the
// collection parallelism. 0 (the default) selects one shard per available
// CPU; 1 fully serializes; negative counts are rejected at construction.
func WithShards(shards int) StreamOption { return server.WithShards(shards) }

// WithPostProcess selects the estimate transform applied to every
// RoundResult's Estimates (costs no privacy by Proposition 2.2); the
// unbiased estimates stay available as RoundResult.Raw.
func WithPostProcess(m PostProcess) StreamOption { return server.WithPostProcess(m) }

// WithHeavyHitters attaches a heavy-hitter tracker fed each round's
// post-processed estimates; RoundResult.HeavyHitters carries its current
// set. cfg.K defaults to the protocol's estimate domain.
func WithHeavyHitters(cfg HeavyHitterConfig) StreamOption { return server.WithHeavyHitters(cfg) }

// WithRoundCapacity sets each Subscribe channel's buffer (default 16).
// The backpressure policy is explicit: publication never blocks on a
// subscriber — a subscriber whose buffer is full when a round is published
// drops that round (detectable via RoundResult.Round gaps, recoverable via
// Stream.Round, counted by Stream.DroppedRounds).
func WithRoundCapacity(n int) StreamOption { return server.WithRoundCapacity(n) }

// WithCohort attaches n in-process simulation clients (seeded
// deterministically from seed) so Collect can drive complete rounds from
// raw values.
func WithCohort(n int, seed uint64) StreamOption { return server.WithCohort(n, seed) }

// ---------------------------------------------------------------------------
// One-shot oracles (§2.3) for non-longitudinal collections.

// GRR is the one-shot generalized randomized response mechanism.
type GRR = freqoracle.GRR

// LH is the one-shot local hashing protocol.
type LH = freqoracle.LH

// UE is the one-shot unary encoding protocol.
type UE = freqoracle.UE

// NewGRR returns one-shot GRR over domain size k at privacy level eps.
func NewGRR(k int, eps float64) (*GRR, error) { return freqoracle.NewGRR(k, eps) }

// NewBLH returns one-shot binary local hashing (g = 2).
func NewBLH(k int, eps float64) (*LH, error) { return freqoracle.NewBLH(k, eps) }

// NewOLH returns one-shot optimal local hashing (g = ⌊e^ε⌉+1).
func NewOLH(k int, eps float64) (*LH, error) { return freqoracle.NewOLH(k, eps) }

// NewSUE returns one-shot symmetric unary encoding.
func NewSUE(k int, eps float64) (*UE, error) { return freqoracle.NewSUE(k, eps) }

// NewOUE returns one-shot optimal unary encoding.
func NewOUE(k int, eps float64) (*UE, error) { return freqoracle.NewOUE(k, eps) }

// Registration is a user's one-time enrollment metadata (LOLOHA hash seed
// or dBitFlipPM sampled buckets).
type Registration = server.Registration

// ---------------------------------------------------------------------------
// Domain helpers.

// Codec maps application-level string values onto the dense indices [0..k)
// that every protocol operates on. Servers and clients must construct it
// from the same value list.
type Codec = domain.Codec

// NewCodec builds a codec over the given distinct values.
func NewCodec(values []string) (*Codec, error) { return domain.NewCodec(values) }

// ---------------------------------------------------------------------------
// Heavy-hitter monitoring (application layer).

// HeavyHitterTracker folds per-round estimates into smoothed frequencies
// and maintains the heavy-hitter set with hysteresis.
type HeavyHitterTracker = heavyhitter.Tracker

// HeavyHitterConfig parameterizes a HeavyHitterTracker.
type HeavyHitterConfig = heavyhitter.Config

// Hitter is one detected heavy hitter.
type Hitter = heavyhitter.Hitter

// NewHeavyHitterTracker returns a tracker over per-round estimates.
func NewHeavyHitterTracker(cfg HeavyHitterConfig) (*HeavyHitterTracker, error) {
	return heavyhitter.New(cfg)
}

// SuggestedHeavyHitterThreshold returns a detection threshold z noise
// floors above zero for a chain's estimates smoothed at the given alpha.
func SuggestedHeavyHitterThreshold(params ChainParams, n int, alpha, z float64) float64 {
	return heavyhitter.SuggestedThreshold(params, n, alpha, z)
}

// ---------------------------------------------------------------------------
// Post-processing (extension; costs no privacy by Proposition 2.2).

// PostProcess selects a server-side estimate transform.
type PostProcess = postprocess.Method

// Post-processing methods: raw estimates (paper default), clamping,
// clip-and-rescale, and the L2-optimal simplex projection.
const (
	PostNone      = postprocess.None
	PostClip      = postprocess.Clip
	PostNormalize = postprocess.Normalize
	PostSimplex   = postprocess.SimplexProject
)

// ApplyPostProcess transforms raw estimates in place and returns them.
func ApplyPostProcess(m PostProcess, est []float64) []float64 {
	return postprocess.Apply(m, est)
}

// ---------------------------------------------------------------------------
// Analysis helpers.

// AccuracyBound evaluates the Proposition 3.6 high-probability bound: with
// probability at least 1−beta, every estimate of a chain with the given
// parameters is within the returned distance of the truth.
func AccuracyBound(k, n int, beta float64, params ChainParams) (float64, error) {
	return analysis.AccuracyBound(k, n, beta, params)
}

// ApproxVarianceLOLOHA returns V* (Eq. (5)) for a LOLOHA configuration.
func ApproxVarianceLOLOHA(epsInf, eps1 float64, g, n int) (float64, error) {
	return analysis.VStarLOLOHA(epsInf, eps1, g, n)
}
