package server

import (
	"runtime"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

func TestCollectCohortShardCounts(t *testing.T) {
	proto, err := longitudinal.NewRAPPOR(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, shards, want int }{
		{10, 1, 1},                              // explicit serial
		{10, 4, 4},                              // normal split
		{3, 8, 3},                               // clamped to n
		{10, 0, min(runtime.GOMAXPROCS(0), 10)}, // default: one per CPU
		{1, 16, 1},                              // single user
	} {
		s, err := NewStream(proto, WithCohort(tc.n, 1), WithShards(tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CohortShards(); got != tc.want {
			t.Errorf("n=%d shards=%d: got %d cohort shards, want %d", tc.n, tc.shards, got, tc.want)
		}
		if _, err := s.Collect(make([]int, tc.n)); err != nil {
			t.Errorf("n=%d shards=%d: %v", tc.n, tc.shards, err)
		}
	}
	if _, err := NewStream(proto, WithCohort(10, 1), WithShards(-2)); err == nil {
		t.Error("negative shard count accepted")
	}
	if s, _ := NewStream(proto, WithShards(4)); s.CohortShards() != 0 {
		t.Errorf("stream without a cohort has %d cohort shards, want 0", s.CohortShards())
	}
}

// panicProto is L-GRR whose clients panic when reporting panicValue: a
// protocol bug that no value check can catch.
type panicProto struct{ longitudinal.Protocol }

const panicValue = 5

func (p panicProto) NewClient(seed uint64) longitudinal.Client {
	return panicClient{p.Protocol.NewClient(seed)}
}

type panicClient struct{ longitudinal.Client }

func (c panicClient) AppendReport(dst []byte, v int) []byte {
	if v == panicValue {
		panic("client bug")
	}
	return c.Client.AppendReport(dst, v)
}

func TestCollectRepanicsOnCallerStack(t *testing.T) {
	// A panic inside a shard goroutine must be re-raised where the caller
	// can recover, matching the inline path's failure mode.
	lgrr, err := longitudinal.NewLGRR(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(panicProto{lgrr}, WithCohort(4, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a client panic did not reach the caller's stack")
		}
	}()
	s.Collect([]int{0, 1, panicValue, 2})
}

func TestCollectRejectsLengthMismatch(t *testing.T) {
	proto, err := longitudinal.NewRAPPOR(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(proto, WithCohort(4, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collect([]int{1, 2}); err == nil {
		t.Error("short values accepted")
	}
	if _, err := s.Collect([]int{1, 2, 3, 4, 5}); err == nil {
		t.Error("long values accepted")
	}
	if _, err := s.Collect([]int{1, 2, 3, 4}); err != nil {
		t.Errorf("well-formed round rejected: %v", err)
	}
}

// TestCollectOutOfDomainLeavesRoundUntouched: a value outside the domain
// fails the whole Collect before any client reports, so neither the open
// round nor any client's ledger moves, at any shard count.
func TestCollectOutOfDomainLeavesRoundUntouched(t *testing.T) {
	proto, err := longitudinal.NewLGRR(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		s, err := NewStream(proto, WithCohort(4, 1), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]int{{0, 1, 99, 2}, {0, -1, 1, 2}} {
			if _, err := s.Collect(bad); err == nil {
				t.Fatalf("shards=%d: out-of-domain values %v accepted", shards, bad)
			}
		}
		if spent := s.MaxPrivacySpent(); spent != 0 {
			t.Errorf("shards=%d: a rejected round charged a client %v", shards, spent)
		}
		res, snap, err := s.CloseRoundExport()
		if err != nil {
			t.Fatal(err)
		}
		if n := snap.Shards[0].N; n != 0 || res.Reports != 0 {
			t.Errorf("shards=%d: round after a rejected Collect holds N=%d, Reports=%d; want 0, 0",
				shards, n, res.Reports)
		}
		res, err = s.Collect([]int{0, 1, 7, 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reports != 4 {
			t.Errorf("shards=%d: next round published %d reports, want 4", shards, res.Reports)
		}
		if slices.Contains(s.PrivacySpent(), 0) {
			t.Errorf("shards=%d: a reporting client spent no budget", shards)
		}
	}
}
