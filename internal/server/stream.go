package server

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/heavyhitter"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/postprocess"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// Stream is the collection service of the library: one configurable,
// thread-safe, multi-round frequency-monitoring pipeline for a single
// longitudinal protocol, with two ways in:
//
//   - Wire path: users Enroll once with registration metadata, then stream
//     raw payload bytes through Ingest (one report), IngestBatch (one lock
//     acquisition per shard per batch) or IngestColumnar (a decoded
//     columnar batch, registration columns enrolling inline).
//   - Simulation path: WithCohort attaches in-process clients and Collect
//     drives a complete round from raw values, each shard generating and
//     tallying a contiguous block of the cohort on its own goroutine.
//
// Rounds are explicit: reports land in the current round until CloseRound
// (or Collect), which publishes a RoundResult to the history and to every
// Subscribe channel. Estimates are bit-identical across shard counts and
// ingestion paths: all randomness lives client-side and shard tallies are
// integer counts.
//
// Internally ingestion is striped: users hash onto shards, each with its
// own lock, enrollment/report maps and aggregator fork, so concurrent
// Ingest calls from different shards never contend. CloseRound acts as a
// round barrier — it excludes all ingestion, merges the shard tallies and
// publishes the estimates.
type Stream struct {
	proto longitudinal.Protocol
	// tallier is the ingestion path: payload bits tally directly into the
	// shard aggregator with no Report materialized and zero allocations.
	tallier longitudinal.ColumnarTallier

	// specHash fingerprints the stream's protocol configuration
	// (its Spec().Hash()); columnar batches carry the producer's
	// hash and IngestColumnar rejects the whole batch on mismatch.
	specHash uint64

	// mu is the round barrier: CloseRound/Collect hold it exclusively;
	// Enroll, Ingest and the published-history readers hold it shared
	// (results and subscribers are only mutated under the exclusive lock).
	mu sync.RWMutex
	// merge is the round target the shard tallies move into when the
	// round closes; it is empty between rounds.
	merge  longitudinal.Aggregator
	shards []*streamShard

	// scratch pools the batch paths' per-shard index lists so
	// steady-state batches reuse memory across calls.
	scratch sync.Pool

	pp      postprocess.Method
	tracker *heavyhitter.Tracker

	results  []RoundResult
	subs     []chan RoundResult
	roundCap int
	dropped  uint64
	closed   bool

	// ledger holds the per-leaf applied-envelope watermarks of a
	// collector-tree root (leaf name → highest applied seq plus
	// attribution counters); nil until the first MergeEnvelope. Guarded by
	// mu: reads under the shared lock, updates under the exclusive lock.
	ledger map[string]persist.LedgerEntry

	// baseRound offsets round indices after RestoreStream: the snapshot's
	// open round was baseRound, rounds published before it are not
	// retained, and results[i] holds round baseRound+i. Zero for a stream
	// that never restored.
	baseRound int

	// Simulation cohort (nil unless WithCohort): client u is user u.
	clients []longitudinal.Client
}

// streamShard owns the ingestion state of one stripe of users. Enrollment
// assigns each user a dense slot, so the steady-state hot path pays one
// map lookup per report (userID → slot) instead of two (the former
// map[int]Registration + map[int]bool pair): the registration lives in a
// dense slice and the per-round duplicate check is one bit in a bitset
// that resets every round without reallocating.
type streamShard struct {
	mu       sync.Mutex
	agg      longitudinal.Aggregator
	slots    map[int]int    // userID → slot, assigned at Enroll
	ids      []int          // slot → userID; append-only, like regs
	regs     []Registration // slot → enrollment metadata
	reported *bitset.Bitset // slot → reported this round
	tallied  int            // reports this round, wire and cohort
	buf      []byte         // the cohort's reusable payload buffer
}

// batchScratch is the batch paths' reusable working memory: the
// per-shard index lists of the partition phase.
type batchScratch struct {
	perShard [][]int
}

// RoundResult is one published collection round.
type RoundResult struct {
	// Round is the 0-based round index.
	Round int
	// Reports is the number of reports tallied into the round.
	Reports int
	// Raw holds the unbiased Eq. (3) estimates.
	Raw []float64
	// Estimates holds the post-processed estimates (a copy of Raw when the
	// stream was built without WithPostProcess).
	Estimates []float64
	// HeavyHitters is the tracker's current heavy-hitter set; nil unless
	// the stream was built with WithHeavyHitters.
	HeavyHitters []heavyhitter.Hitter
}

// clone returns a deep copy so history, subscribers and the caller never
// share mutable slices.
func (r RoundResult) clone() RoundResult {
	c := r
	c.Raw = append([]float64(nil), r.Raw...)
	c.Estimates = append([]float64(nil), r.Estimates...)
	c.HeavyHitters = append([]heavyhitter.Hitter(nil), r.HeavyHitters...)
	return c
}

// ---------------------------------------------------------------------------
// Options.

// Option configures a Stream.
type Option func(*streamConfig)

type streamConfig struct {
	shards    int
	shardsSet bool
	pp        postprocess.Method
	hh        *heavyhitter.Config
	roundCap  int
	cohortN   int
	cohortSet bool
	seed      uint64
}

// WithShards sets the ingestion stripe count and, when a cohort is
// attached, the collection parallelism (see CohortShards). 0 (the
// default) selects one shard per available CPU; 1 fully serializes the
// service; negative counts are rejected at construction.
func WithShards(shards int) Option {
	return func(c *streamConfig) { c.shards = shards; c.shardsSet = true }
}

// WithPostProcess selects the server-side estimate transform applied to
// every RoundResult's Estimates (costs no privacy by Proposition 2.2). The
// unbiased estimates always remain available as RoundResult.Raw.
func WithPostProcess(m postprocess.Method) Option {
	return func(c *streamConfig) { c.pp = m }
}

// WithHeavyHitters attaches a heavy-hitter tracker fed the post-processed
// estimates of every round; RoundResult.HeavyHitters carries its current
// set. cfg.K defaults to the protocol's estimate domain when zero.
func WithHeavyHitters(cfg heavyhitter.Config) Option {
	return func(c *streamConfig) { c.hh = &cfg }
}

// WithRoundCapacity sets the buffer of each Subscribe channel (default
// 16). Must be at least 1.
//
// The buffer is the whole backpressure contract: publication NEVER blocks
// on a subscriber. A subscriber that has n unconsumed rounds buffered when
// CloseRound publishes the next one does not receive that round — it is
// dropped for that subscriber only (drop, not block). Every delivered
// RoundResult carries its Round index, so gaps are detectable, Round(t)
// backfills any missed round from the history, and DroppedRounds counts
// drops across all subscribers. TestStreamSlowSubscriberDropPolicy pins
// this behavior.
func WithRoundCapacity(n int) Option {
	return func(c *streamConfig) { c.roundCap = n }
}

// WithCohort attaches n in-process simulation clients, seeded
// deterministically from seed, so Collect can drive complete rounds from
// raw values. The clients own user IDs [0..n): wire enrollment under
// those IDs is rejected, since it would tally a user twice per round.
// Production deployments run clients on devices and use the wire path
// instead.
func WithCohort(n int, seed uint64) Option {
	return func(c *streamConfig) { c.cohortN = n; c.cohortSet = true; c.seed = seed }
}

// NewStream returns a collection service for the protocol; its tallier
// is the only way a payload reaches the stream's tallies.
func NewStream(proto longitudinal.Protocol, opts ...Option) (*Stream, error) {
	cfg := streamConfig{roundCap: 16}
	for _, o := range opts {
		o(&cfg)
	}
	if proto == nil {
		return nil, fmt.Errorf("server: nil protocol")
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("server: negative shard count %d", cfg.shards)
	}
	if !cfg.shardsSet || cfg.shards == 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
	}
	if cfg.roundCap < 1 {
		return nil, fmt.Errorf("server: round capacity must be at least 1, got %d", cfg.roundCap)
	}
	if cfg.cohortSet && cfg.cohortN < 1 {
		return nil, fmt.Errorf("server: cohort needs at least one user, got %d", cfg.cohortN)
	}

	s := &Stream{
		proto:    proto,
		tallier:  proto.WireTallier(),
		specHash: proto.Spec().Hash(),
		pp:       cfg.pp,
		roundCap: cfg.roundCap,
		merge:    proto.NewAggregator(),
	}
	s.shards = make([]*streamShard, cfg.shards)
	for i := range s.shards {
		s.shards[i] = &streamShard{
			slots:    make(map[int]int),
			reported: bitset.New(0),
			agg:      s.merge.Fork(),
		}
	}
	s.scratch.New = func() any {
		return &batchScratch{perShard: make([][]int, len(s.shards))}
	}

	if cfg.hh != nil {
		hhCfg := *cfg.hh
		if hhCfg.K == 0 {
			hhCfg.K = s.merge.EstimateDomain()
		}
		if hhCfg.K != s.merge.EstimateDomain() {
			return nil, fmt.Errorf("server: heavy-hitter tracker over %d values, protocol estimates %d",
				hhCfg.K, s.merge.EstimateDomain())
		}
		tracker, err := heavyhitter.New(hhCfg)
		if err != nil {
			return nil, err
		}
		s.tracker = tracker
	}

	if cfg.cohortSet {
		s.clients = make([]longitudinal.Client, cfg.cohortN)
		for u := range s.clients {
			s.clients[u] = proto.NewClient(randsrc.Derive(cfg.seed, uint64(u)))
		}
	}
	return s, nil
}

// Protocol returns the protocol the stream collects for.
func (s *Stream) Protocol() longitudinal.Protocol { return s.proto }

// Shards returns the number of ingestion stripes.
func (s *Stream) Shards() int { return len(s.shards) }

// shardOf maps a user onto its stripe. The user ID is mixed first so that
// contiguous ID ranges spread evenly regardless of stripe count.
//
//loloha:noalloc
func (s *Stream) shardOf(userID int) *streamShard {
	return s.shards[s.shardIndex(userID)]
}

//loloha:noalloc
func (s *Stream) shardIndex(userID int) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(randsrc.Mix64(uint64(userID)) % uint64(len(s.shards)))
}

// ---------------------------------------------------------------------------
// Wire ingestion.

// checkWireID rejects wire operations on IDs owned by the attached
// cohort: client u of WithCohort(n, seed) is user u, so a wire report
// under the same ID would tally the user twice in one round — exactly the
// duplicate bias the per-round report check exists to prevent.
//
//loloha:noalloc
func (s *Stream) checkWireID(userID int) error {
	if s.clients != nil && userID >= 0 && userID < len(s.clients) {
		return fmt.Errorf("server: user %d is an attached cohort client; wire users must use IDs outside [0..%d)",
			userID, len(s.clients))
	}
	return nil
}

// Enroll registers a user's one-time metadata. Re-enrollment with
// different metadata is rejected: a changed hash function or changed
// sampled buckets would corrupt the user's support counts. With an
// attached cohort, wire user IDs must lie outside the cohort's [0..n).
func (s *Stream) Enroll(userID int, reg Registration) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkWireID(userID); err != nil {
		return err
	}
	sh := s.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.enroll(userID, reg)
}

func (sh *streamShard) enroll(userID int, reg Registration) error {
	if slot, ok := sh.slots[userID]; ok {
		// Sampled buckets compare element-wise: two users with equally
		// many but different buckets are NOT interchangeable (their
		// support counts land in different histogram bins).
		prev := sh.regs[slot]
		if prev.HashSeed != reg.HashSeed || !slices.Equal(prev.Sampled, reg.Sampled) {
			return fmt.Errorf("server: user %d already enrolled with different metadata", userID)
		}
		return nil
	}
	slot := len(sh.regs)
	sh.slots[userID] = slot
	sh.ids = append(sh.ids, userID)
	sh.regs = append(sh.regs, reg)
	sh.reported.Grow(slot + 1)
	return nil
}

// Ingest tallies one user's payload for the current round. Duplicate
// reports within a round are rejected (they would bias Eq. (3)). The
// steady state performs zero allocations per report: one map lookup
// resolves the user's slot, the duplicate check is a bit test, and the
// payload tallies in place.
//
//loloha:noalloc
func (s *Stream) Ingest(userID int, payload []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkWireID(userID); err != nil {
		return err
	}
	sh := s.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.tally(sh, userID, payload)
}

// tally runs one report through its shard: enrollment lookup, duplicate
// check, then the length-checked tally. A rejected report tallies
// nothing. Caller holds sh.mu.
//
//loloha:noalloc
func (s *Stream) tally(sh *streamShard, userID int, payload []byte) error {
	slot, ok := sh.slots[userID]
	if !ok {
		return fmt.Errorf("server: user %d not enrolled", userID)
	}
	if sh.reported.Get(slot) {
		return fmt.Errorf("server: user %d already reported this round", userID)
	}
	if err := longitudinal.TallyPayload(s.tallier, sh.agg, userID, payload, sh.regs[slot]); err != nil {
		return fmt.Errorf("server: user %d payload: %w", userID, err)
	}
	sh.reported.Set(slot, true)
	sh.tallied++
	return nil
}

// partition groups a batch's row indices by shard, so the tally loop takes
// one lock per shard per batch. Rows whose user ID belongs to the attached
// cohort are rejected here.
//
//loloha:noalloc
func (s *Stream) partition(sc *batchScratch, userIDs []int, errs []error) []error {
	for i := range sc.perShard {
		sc.perShard[i] = sc.perShard[i][:0]
	}
	for i, u := range userIDs {
		if err := s.checkWireID(u); err != nil {
			errs = append(errs, err)
			continue
		}
		si := s.shardIndex(u)
		sc.perShard[si] = append(sc.perShard[si], i)
	}
	return errs
}

// IngestBatch tallies a whole batch of payloads, payloads[i] belonging to
// userIDs[i], with one shard-lock acquisition per shard rather than one
// per report. The working memory — the per-shard index lists — comes from
// a pool, so steady-state batches allocate nothing (see
// BenchmarkIngestPath).
//
// The batch is not transactional: every enrolled, non-duplicate,
// well-formed report is tallied, and the returned error joins one error
// per rejected report (nil when all landed). A user repeated within the
// batch is rejected exactly like a repeat across Ingest calls. Tallies are
// integer counts, so estimates are bit-identical to ingesting the same
// reports one at a time in any order.
//
//loloha:noalloc
func (s *Stream) IngestBatch(userIDs []int, payloads [][]byte) error {
	if len(userIDs) != len(payloads) {
		return fmt.Errorf("server: batch has %d user IDs for %d payloads", len(userIDs), len(payloads))
	}
	if len(userIDs) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	sc := s.scratch.Get().(*batchScratch)
	defer s.scratch.Put(sc)

	errs := s.partition(sc, userIDs, nil)
	for si, idxs := range sc.perShard {
		if len(idxs) > 0 {
			errs = s.tallyRows(s.shards[si], idxs, userIDs, payloads, errs)
		}
	}
	return errors.Join(errs...)
}

// tallyRows tallies the batch rows idxs of one shard under its lock.
//
//loloha:noalloc
func (s *Stream) tallyRows(sh *streamShard, idxs, userIDs []int, payloads [][]byte, errs []error) []error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range idxs {
		if err := s.tally(sh, userIDs[i], payloads[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// ErrColumnarMismatch reports a columnar batch built for a different
// protocol configuration than the stream's: its spec hash or payload
// stride disagrees. The whole batch is rejected — the producer's encoder
// is misconfigured, which is a framing-level fault, not a per-report one.
var ErrColumnarMismatch = errors.New("columnar batch does not match the stream's protocol")

// IngestColumnar tallies one decoded columnar batch (see
// longitudinal.DecodeColumnar): the packed payload column tallies cell by
// cell, one shard-lock acquisition per shard per batch, with zero
// steady-state allocations. A batch carrying registration columns enrolls
// each user before tallying (idempotent for already enrolled users; a
// conflicting re-enrollment is reported but the report still tallies
// under the original registration, exactly as a separate
// enroll-then-report sequence would behave).
//
// The spec hash and payload stride must match the stream's protocol;
// otherwise the whole batch is rejected with ErrColumnarMismatch.
// Per-report rejections (not enrolled, duplicate, malformed cell) join
// into the returned error exactly like IngestBatch.
//
//loloha:noalloc
func (s *Stream) IngestColumnar(batch *longitudinal.ColumnarBatch) error {
	if batch.SpecHash != s.specHash {
		return fmt.Errorf("server: batch spec hash %#016x, stream has %#016x: %w",
			batch.SpecHash, s.specHash, ErrColumnarMismatch)
	}
	if batch.Count() == 0 {
		return nil
	}
	if stride := s.tallier.PayloadStride(); batch.Stride != stride {
		return fmt.Errorf("server: batch payload stride %d, protocol takes %d: %w",
			batch.Stride, stride, ErrColumnarMismatch)
	}

	s.mu.RLock()
	defer s.mu.RUnlock()

	sc := s.scratch.Get().(*batchScratch)
	defer s.scratch.Put(sc)

	errs := s.partition(sc, batch.IDs, nil)
	for si, idxs := range sc.perShard {
		if len(idxs) > 0 {
			errs = s.tallyColumn(s.shards[si], idxs, batch, errs)
		}
	}
	return errors.Join(errs...)
}

// tallyColumn tallies the batch rows idxs of one shard under its lock,
// enrolling each row's user first when the batch carries registrations.
//
//loloha:noalloc
func (s *Stream) tallyColumn(sh *streamShard, idxs []int, batch *longitudinal.ColumnarBatch, errs []error) []error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	hasRegs := batch.HasRegistrations()
	for _, i := range idxs {
		u := batch.IDs[i]
		if hasRegs {
			// Cold path: the batch enrolls its users inline. The sampled
			// view aliases the batch's pooled bucket column, so the
			// retained registration clones it.
			reg := batch.Registration(i)
			//loloha:alloc-ok cold enrollment clones the batch's sampled-bucket view
			reg.Sampled = slices.Clone(reg.Sampled)
			//loloha:alloc-ok cold enrollment extends the shard's slot tables
			if err := sh.enroll(u, reg); err != nil {
				errs = append(errs, err)
			}
		}
		if err := s.tally(sh, u, batch.Payload(i)); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// ---------------------------------------------------------------------------
// Simulation cohort.

// Collect runs one complete collection round for the attached cohort:
// values[u] is client u's current value. Every client reports, the round
// is closed, and its RoundResult returned — wire reports ingested since
// the previous round share the same result. Requires WithCohort. Every
// value is checked against the protocol's domain first: a round with an
// out-of-range value returns an error with no client reported and the
// open round untouched.
func (s *Stream) Collect(values []int) (RoundResult, error) {
	if s.clients == nil {
		return RoundResult{}, fmt.Errorf("server: no cohort attached (use WithCohort)")
	}
	if len(values) != len(s.clients) {
		return RoundResult{}, fmt.Errorf("server: got %d values for %d users", len(values), len(s.clients))
	}
	k := s.proto.K()
	for u, v := range values {
		if v < 0 || v >= k {
			return RoundResult{}, fmt.Errorf("server: user %d value %d outside [0,%d)", u, v, k)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collectLocked(values)
	return s.closeRoundLocked(), nil
}

// collectLocked has each of the CohortShards shards generate and tally
// its contiguous block of the cohort on its own aggregator, one goroutine
// per shard (inline for one). Users keep their shard across rounds, so
// per-user tally caches stay warm. A panic in a shard (a protocol bug:
// the values were checked) is re-raised on the caller's stack. Caller
// holds s.mu exclusively, which keeps ingestion off the shards.
func (s *Stream) collectLocked(values []int) {
	n, c := len(s.clients), s.CohortShards()
	if c == 1 {
		s.collectRange(s.shards[0], values, 0, n)
		return
	}
	panics := make([]any, c)
	var wg sync.WaitGroup
	for i := range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			s.collectRange(s.shards[i], values, i*n/c, (i+1)*n/c)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// collectRange has cohort users [lo..hi) report their values into the
// shard's payload buffer and tallies each payload in place — the same
// allocation-free generate→tally round trip as wire ingestion.
//
//loloha:noalloc
func (s *Stream) collectRange(sh *streamShard, values []int, lo, hi int) {
	buf := sh.buf
	for u := lo; u < hi; u++ {
		cl := s.clients[u]
		buf = cl.AppendReport(buf[:0], values[u])
		if err := longitudinal.TallyPayload(s.tallier, sh.agg, u, buf, cl.WireRegistration()); err != nil {
			// A payload the protocol's own client just emitted cannot be
			// malformed: this is a protocol implementation bug.
			panic(fmt.Sprintf("server: collection rejected its own report: %v", err))
		}
	}
	// Written once, not per report: shards sit side by side in memory.
	sh.tallied += hi - lo
	sh.buf = buf
}

// CohortSize returns the number of attached simulation clients (0 without
// WithCohort).
func (s *Stream) CohortSize() int { return len(s.clients) }

// CohortShards returns the cohort's collection parallelism: the shard
// count clamped to the cohort size (0 without WithCohort).
func (s *Stream) CohortShards() int { return min(len(s.shards), len(s.clients)) }

// PrivacySpent returns each attached client's longitudinal privacy loss ε̌
// so far (nil without WithCohort).
func (s *Stream) PrivacySpent() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.clients == nil {
		return nil
	}
	out := make([]float64, len(s.clients))
	for u, cl := range s.clients {
		out[u] = cl.PrivacySpent()
	}
	return out
}

// MaxPrivacySpent returns the worst ε̌ across the attached cohort (0
// without WithCohort).
func (s *Stream) MaxPrivacySpent() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	worst := 0.0
	for _, cl := range s.clients {
		if spent := cl.PrivacySpent(); spent > worst {
			worst = spent
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Round lifecycle and publication.

// CloseRound finalizes the current round, publishes its RoundResult (to
// the history and every subscriber) and opens the next round. The returned
// result is the caller's to keep: history and subscribers hold their own
// copies, so later mutation cannot corrupt Round's results.
func (s *Stream) CloseRound() RoundResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeRoundLocked()
}

// mergeShardsLocked moves every shard's round tallies into s.merge.
// Merging moves counts, so running it twice is harmless. Caller holds
// s.mu exclusively.
func (s *Stream) mergeShardsLocked() {
	for _, sh := range s.shards {
		s.merge.Merge(sh.agg)
	}
}

// closeRoundLocked merges shard tallies, estimates, post-processes and
// publishes. Caller holds s.mu exclusively.
func (s *Stream) closeRoundLocked() RoundResult {
	s.mergeShardsLocked()
	raw := s.merge.EndRound()
	reports := 0
	for _, sh := range s.shards {
		reports += sh.tallied
		sh.tallied = 0
		sh.reported.Reset()
	}

	estimates := append([]float64(nil), raw...)
	estimates = postprocess.Apply(s.pp, estimates)
	res := RoundResult{
		Round:     s.baseRound + len(s.results),
		Reports:   reports,
		Raw:       raw,
		Estimates: estimates,
	}
	if s.tracker != nil {
		s.tracker.Observe(estimates)
		res.HeavyHitters = s.tracker.HeavyHitters()
	}
	s.results = append(s.results, res.clone())
	if !s.closed {
		for _, sub := range s.subs {
			// Non-blocking: a subscriber that lags more than its buffer
			// (WithRoundCapacity) misses rounds rather than stalling the
			// round barrier; RoundResult.Round makes gaps detectable and
			// Round(t) backfills them. CloseRound is the only sender and
			// holds s.mu exclusively, so a full buffer can only drain —
			// checking occupancy first skips the clone a select would
			// evaluate and then drop.
			if len(sub) == cap(sub) {
				s.dropped++
				continue
			}
			sub <- res.clone()
		}
	}
	return res
}

// Subscribe returns a channel receiving every subsequently published
// RoundResult. The channel is buffered (WithRoundCapacity); when the
// buffer is full the subscriber misses rounds instead of blocking
// CloseRound — the explicit slow-subscriber policy is drop, never block
// (see WithRoundCapacity). Close closes all subscription channels; after
// Close, Subscribe returns an already-closed channel.
func (s *Stream) Subscribe() <-chan RoundResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan RoundResult, s.roundCap)
	if s.closed {
		close(ch)
		return ch
	}
	s.subs = append(s.subs, ch)
	return ch
}

// Close terminates publication: every subscription channel is closed and
// later Subscribe calls return closed channels. Ingestion and the round
// history remain usable; Close only ends the streaming side.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, sub := range s.subs {
		close(sub)
	}
	s.subs = nil
}

// Round returns a copy of the published result of round t (0-based);
// mutating it cannot corrupt the published history.
func (s *Stream) Round(t int) (RoundResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t >= s.baseRound && t < s.baseRound+len(s.results) {
		return s.results[t-s.baseRound].clone(), nil
	}
	if t >= 0 && t < s.baseRound {
		// Published before the snapshot this stream restored from; the
		// history was not serialized (only the open round's state is).
		return RoundResult{}, fmt.Errorf("server: round %d predates the restored snapshot (history starts at %d)",
			t, s.baseRound)
	}
	return RoundResult{}, fmt.Errorf("server: round %d not published (have %d)", t, s.baseRound+len(s.results))
}

// Rounds returns the index one past the last published round (the open
// round's index). For a stream that never restored this is the number of
// published rounds; after RestoreStream it continues from the snapshot's
// round, although the earlier history itself is not retained.
func (s *Stream) Rounds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseRound + len(s.results)
}

// Enrolled returns the number of enrolled users.
func (s *Stream) Enrolled() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.slots)
		sh.mu.Unlock()
	}
	return total
}

// Pending returns the number of reports tallied into the currently open
// round (excluding cohort reports, which close their round in the same
// call). A daemon closing rounds on a timer uses it to skip publishing
// empty rounds.
func (s *Stream) Pending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.tallied
		sh.mu.Unlock()
	}
	return total
}

// DroppedRounds returns the total number of round deliveries skipped
// because a subscriber's buffer was full (summed over all subscribers; a
// round missed by three subscribers counts three). It makes the drop
// policy of WithRoundCapacity observable without instrumenting every
// subscriber.
func (s *Stream) DroppedRounds() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}
