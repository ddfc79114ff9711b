package longitudinal

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultShards returns the default collection parallelism: one shard per
// available CPU.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// ShardedCollector drives collection rounds over a fixed-size cohort,
// partitioned into contiguous user shards that report and tally on their
// own goroutines. Results are bit-identical to a serial collection for any
// shard count: per-user randomness lives in each Client, users keep their
// shard across rounds, and shard tallies are integer counts merged before
// estimation.
//
// When the protocol's aggregator does not implement MergeableAggregator
// the collector transparently falls back to a single serial shard.
type ShardedCollector struct {
	agg    Aggregator   // merge target; sole tally when serial
	forks  []Aggregator // per-shard forks (empty when serial)
	bounds []int        // len(forks)+1 offsets partitioning [0..n)
	n      int
	// tallier, when set via EnableTallyDirect, routes collection through
	// the protocol's wire fast path: clients that implement AppendReporter
	// emit payload bytes into bufs (one reusable buffer per shard) and the
	// tallier bumps shard tallies in place — no bitset, no boxed Report,
	// zero steady-state allocations per report.
	tallier ColumnarTallier
	bufs    [][]byte
}

// NewShardedCollector partitions n users into at most shards contiguous
// blocks tallied by forks of agg. shards <= 1 — including any negative
// value — or a non-mergeable agg selects the serial path; shards is
// clamped to n. Callers that want to reject negative shard counts (the
// public constructors do) must validate before constructing.
func NewShardedCollector(agg Aggregator, n, shards int) *ShardedCollector {
	c := &ShardedCollector{agg: agg, n: n}
	if shards > n {
		shards = n
	}
	ma, mergeable := agg.(MergeableAggregator)
	if shards <= 1 || !mergeable {
		return c
	}
	c.forks = make([]Aggregator, shards)
	c.bounds = make([]int, shards+1)
	for i := range c.forks {
		c.forks[i] = ma.Fork()
		c.bounds[i] = i * n / shards
	}
	c.bounds[shards] = n
	return c
}

// EnableTallyDirect routes collection rounds through the protocol's wire
// fast path: each user's report is emitted with AppendReport into a
// per-shard reusable buffer and tallied in place by t, composing the
// allocation-free generate path with tally-direct ingestion. Clients that
// do not implement AppendReporter fall back to Report/Add per user.
// Estimates are bit-identical on either path — AppendReport emits exactly
// the bytes Report would serialize, and the tallier bumps the same integer
// tallies Add would.
func (c *ShardedCollector) EnableTallyDirect(t ColumnarTallier) {
	c.tallier = t
	if c.bufs == nil {
		n := len(c.forks)
		if n == 0 {
			n = 1
		}
		c.bufs = make([][]byte, n)
	}
}

// Shards returns the effective parallelism (1 on the serial path).
func (c *ShardedCollector) Shards() int {
	if len(c.forks) == 0 {
		return 1
	}
	return len(c.forks)
}

// Aggregator returns the merge target (the aggregator the collector was
// constructed with).
func (c *ShardedCollector) Aggregator() Aggregator { return c.agg }

// Collect runs one collection round: clients[u].Report(values[u]) is
// tallied for every user u and the round's estimates returned. clients and
// values must have the length the collector was constructed for.
func (c *ShardedCollector) Collect(clients []Client, values []int) ([]float64, error) {
	if err := c.Tally(clients, values); err != nil {
		return nil, err
	}
	return c.agg.EndRound(), nil
}

// Tally is Collect without the round finalization: every report lands in
// the collector's merge target but EndRound is left to the caller, so
// collector tallies can share a round with reports added to the target
// through other paths (the Stream service mixes wire ingestion and cohort
// collection this way).
func (c *ShardedCollector) Tally(clients []Client, values []int) error {
	if len(clients) != c.n || len(values) != c.n {
		return fmt.Errorf("longitudinal: sharded collector built for %d users, got %d clients / %d values",
			c.n, len(clients), len(values))
	}
	if len(c.forks) == 0 {
		c.tallyRange(c.agg, 0, clients, values, 0, c.n)
		return nil
	}
	// Client/aggregator panics (caller bugs like out-of-range values) are
	// re-raised on the caller's stack, so sharding keeps the serial path's
	// failure mode instead of crashing the process from a worker.
	panics := make([]any, len(c.forks))
	var wg sync.WaitGroup
	for i, fork := range c.forks {
		wg.Add(1)
		go func(i int, fork Aggregator, lo, hi int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			c.tallyRange(fork, i, clients, values, lo, hi)
		}(i, fork, c.bounds[i], c.bounds[i+1])
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	ma := c.agg.(MergeableAggregator)
	for _, fork := range c.forks {
		ma.Merge(fork)
	}
	return nil
}

// tallyRange tallies users [lo..hi) into agg. shard indexes the reusable
// wire buffer on the tally-direct path; each shard (and the serial path's
// index 0) is owned by exactly one goroutine per round, so buffers are
// contention-free.
func (c *ShardedCollector) tallyRange(agg Aggregator, shard int, clients []Client, values []int, lo, hi int) {
	if c.tallier == nil {
		for u := lo; u < hi; u++ {
			agg.Add(u, clients[u].Report(values[u]))
		}
		return
	}
	buf := c.bufs[shard]
	for u := lo; u < hi; u++ {
		ar, ok := clients[u].(AppendReporter)
		if !ok {
			agg.Add(u, clients[u].Report(values[u]))
			continue
		}
		buf = ar.AppendReport(buf[:0], values[u])
		if err := TallyPayload(c.tallier, agg, u, buf, ar.WireRegistration()); err != nil {
			// A payload the protocol's own client just emitted cannot be
			// malformed; a rejection here is a protocol implementation bug,
			// surfaced like any other caller bug on this path.
			panic(fmt.Sprintf("longitudinal: tally-direct collection rejected its own report: %v", err))
		}
	}
	c.bufs[shard] = buf
}
