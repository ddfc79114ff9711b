package longitudinal

import (
	"testing"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestMergeFoldsAndResetsRoundState(t *testing.T) {
	const k = 8
	proto, err := NewLGRR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	main := proto.NewAggregator()
	fork := main.Fork()
	cl := proto.NewClient(1)
	tallyReport(t, proto, fork, 0, cl, 3)
	tallyReport(t, proto, fork, 1, cl, 5)
	main.Merge(fork)

	// The fork was reset: its next round starts empty.
	forkEst := fork.EndRound()
	for v, e := range forkEst {
		if e != 0 {
			t.Errorf("fork estimate[%d] = %v after merge, want 0 (round state not reset)", v, e)
		}
	}
	// The merge target carries the two reports.
	est := main.EndRound()
	sum := 0.0
	for _, e := range est {
		sum += e
	}
	if sum == 0 {
		t.Error("merge target lost the fork's reports")
	}
}

func TestMergePanicsOnForeignAggregator(t *testing.T) {
	lgrr, _ := NewLGRR(8, 2, 1)
	rappor, _ := NewRAPPOR(8, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("merging an aggregator of a different protocol did not panic")
		}
	}()
	lgrr.NewAggregator().Merge(rappor.NewAggregator())
}

func TestShardedCollectorShardCounts(t *testing.T) {
	proto, _ := NewRAPPOR(8, 2, 1)
	for _, tc := range []struct{ n, shards, want int }{
		{10, 1, 1},  // explicit serial
		{10, 4, 4},  // normal split
		{3, 8, 3},   // clamped to n
		{10, 0, 1},  // non-positive is serial
		{10, -2, 1}, // non-positive is serial
		{1, 16, 1},  // single user
	} {
		c := NewShardedCollector(proto.NewAggregator(), proto.WireTallier(), tc.n, tc.shards)
		if got := c.Shards(); got != tc.want {
			t.Errorf("n=%d shards=%d: got %d effective shards, want %d", tc.n, tc.shards, got, tc.want)
		}
	}
}

func TestShardedCollectorRepanicsOnCallerStack(t *testing.T) {
	// Caller bugs (out-of-range values) panic inside shard goroutines;
	// the collector must re-raise them where the caller can recover,
	// matching the serial path's failure mode.
	proto, _ := NewLGRR(8, 2, 1)
	clients := make([]Client, 4)
	for u := range clients {
		clients[u] = proto.NewClient(uint64(u))
	}
	c := NewShardedCollector(proto.NewAggregator(), proto.WireTallier(), 4, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range value did not panic on the caller's stack")
		}
	}()
	c.Collect(clients, []int{0, 1, 99, 2}) // 99 outside [0,8)
}

func TestShardedCollectorRejectsLengthMismatch(t *testing.T) {
	proto, _ := NewRAPPOR(8, 2, 1)
	c := NewShardedCollector(proto.NewAggregator(), proto.WireTallier(), 4, 2)
	clients := make([]Client, 4)
	for u := range clients {
		clients[u] = proto.NewClient(randsrc.Derive(1, uint64(u)))
	}
	if _, err := c.Collect(clients, []int{1, 2}); err == nil {
		t.Error("mismatched values length accepted")
	}
	if _, err := c.Collect(clients[:2], []int{1, 2}); err == nil {
		t.Error("mismatched clients length accepted")
	}
	if _, err := c.Collect(clients, []int{1, 2, 3, 4}); err != nil {
		t.Errorf("well-formed round rejected: %v", err)
	}
}
