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
// own goroutines. Each user's report is emitted with AppendReport into a
// per-shard reusable buffer and tallied in place by the protocol's
// tallier — the same allocation-free generate→tally round trip as wire
// ingestion. Results are bit-identical to a serial collection for any
// shard count: per-user randomness lives in each Client, users keep their
// shard across rounds, and shard tallies are integer counts merged before
// estimation.
type ShardedCollector struct {
	agg     Aggregator // merge target; sole tally when serial
	tallier ColumnarTallier
	forks   []Aggregator // per-shard forks (empty when serial)
	bounds  []int        // len(forks)+1 offsets partitioning [0..n)
	n       int
	bufs    [][]byte // one reusable payload buffer per shard
}

// NewShardedCollector partitions n users into at most shards contiguous
// blocks tallied by forks of agg through t, the protocol's tallier.
// shards <= 1 — including any negative value — selects the serial path;
// shards is clamped to n. Callers that want to reject negative shard
// counts (the public constructors do) must validate before constructing.
func NewShardedCollector(agg Aggregator, t ColumnarTallier, n, shards int) *ShardedCollector {
	c := &ShardedCollector{agg: agg, tallier: t, n: n, bufs: make([][]byte, 1)}
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		return c
	}
	c.forks = make([]Aggregator, shards)
	c.bounds = make([]int, shards+1)
	c.bufs = make([][]byte, shards)
	for i := range c.forks {
		c.forks[i] = agg.Fork()
		c.bounds[i] = i * n / shards
	}
	c.bounds[shards] = n
	return c
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

// Collect runs one collection round: clients[u]'s report of values[u] is
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
	for _, fork := range c.forks {
		c.agg.Merge(fork)
	}
	return nil
}

// tallyRange tallies users [lo..hi) into agg. shard indexes the reusable
// payload buffer; each shard (and the serial path's index 0) is owned by
// exactly one goroutine per round, so buffers are contention-free.
func (c *ShardedCollector) tallyRange(agg Aggregator, shard int, clients []Client, values []int, lo, hi int) {
	buf := c.bufs[shard]
	for u := lo; u < hi; u++ {
		cl := clients[u]
		buf = cl.AppendReport(buf[:0], values[u])
		if err := TallyPayload(c.tallier, agg, u, buf, cl.WireRegistration()); err != nil {
			// A payload the protocol's own client just emitted cannot be
			// malformed; a rejection here is a protocol implementation bug,
			// surfaced like any other caller bug on this path.
			panic(fmt.Sprintf("longitudinal: collection rejected its own report: %v", err))
		}
	}
	c.bufs[shard] = buf
}
