// Tests for the sharded parallel collection engine: for every protocol,
// sharded collection must be bit-identical to serial collection for a
// fixed seed — parallelism is a pure throughput optimization, never a
// semantics change. Run with -race to also exercise shard isolation.
package loloha_test

import (
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// parallelProtos builds one instance of every longitudinal protocol family
// in the repository.
func parallelProtos(t *testing.T, k int) map[string]loloha.Protocol {
	t.Helper()
	protos := map[string]loloha.Protocol{}
	for name, mk := range map[string]func() (loloha.Protocol, error){
		"BiLOLOHA":   func() (loloha.Protocol, error) { return loloha.NewBiLOLOHA(k, 2, 1) },
		"OLOLOHA":    func() (loloha.Protocol, error) { return loloha.NewOLOLOHA(k, 2, 1) },
		"RAPPOR":     func() (loloha.Protocol, error) { return loloha.NewRAPPOR(k, 2, 1) },
		"L-OSUE":     func() (loloha.Protocol, error) { return loloha.NewLOSUE(k, 2, 1) },
		"L-OUE":      func() (loloha.Protocol, error) { return loloha.NewLOUE(k, 2, 1) },
		"L-SOUE":     func() (loloha.Protocol, error) { return loloha.NewLSOUE(k, 2, 1) },
		"L-GRR":      func() (loloha.Protocol, error) { return loloha.NewLGRR(k, 2, 1) },
		"dBitFlipPM": func() (loloha.Protocol, error) { return loloha.NewDBitFlipPM(k, k/2, 3, 2) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protos[name] = p
	}
	return protos
}

func TestShardedCollectMatchesSerial(t *testing.T) {
	const k, n, rounds, seed = 24, 700, 3, 11
	for name, proto := range parallelProtos(t, k) {
		serial, err := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sharded, err := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(8))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := serial.CohortShards(); got != 1 {
			t.Fatalf("%s: serial cohort has %d shards", name, got)
		}
		if got := sharded.CohortShards(); got != 8 {
			t.Fatalf("%s: sharded cohort has %d shards, want 8", name, got)
		}
		values := make([]int, n)
		for round := 0; round < rounds; round++ {
			for u := range values {
				values[u] = (u*7 + round*13) % k // churn
			}
			wantRes, err := serial.Collect(values)
			if err != nil {
				t.Fatalf("%s: serial round %d: %v", name, round, err)
			}
			gotRes, err := sharded.Collect(values)
			if err != nil {
				t.Fatalf("%s: sharded round %d: %v", name, round, err)
			}
			got, want := gotRes.Raw, wantRes.Raw
			if len(got) != len(want) {
				t.Fatalf("%s: estimate lengths differ: %d vs %d", name, len(got), len(want))
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s round %d: est[%d] = %v sharded vs %v serial (must be bit-identical)",
						name, round, v, got[v], want[v])
				}
			}
		}
	}
}

func TestShardedCohortPrivacyMatchesSerial(t *testing.T) {
	// The ledger is client-side state; sharding the collection must not
	// change any user's accounted loss.
	const k, n, seed = 16, 96, 5
	proto, err := loloha.NewBiLOLOHA(k, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(1))
	sharded, _ := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(6))
	values := make([]int, n)
	for round := 0; round < 5; round++ {
		for u := range values {
			values[u] = (u + round*3) % k
		}
		if _, err := serial.Collect(values); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Collect(values); err != nil {
			t.Fatal(err)
		}
	}
	ss, ps := serial.PrivacySpent(), sharded.PrivacySpent()
	for u := range ss {
		if ss[u] != ps[u] {
			t.Fatalf("user %d: serial spent %v, sharded spent %v", u, ss[u], ps[u])
		}
	}
}

func TestShardedCohortClampsShards(t *testing.T) {
	proto, err := loloha.NewBiLOLOHA(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// More shards than users: clamped, still correct.
	cohort, err := loloha.NewStream(proto, loloha.WithCohort(3, 1), loloha.WithShards(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := cohort.CohortShards(); got > 3 {
		t.Errorf("shards = %d for 3 users", got)
	}
	if _, err := cohort.Collect([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	// The default shard count picks up parallelism automatically.
	def, err := loloha.NewStream(proto, loloha.WithCohort(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if def.CohortShards() < 1 {
		t.Errorf("default cohort shards = %d", def.CohortShards())
	}
}

func TestShardedCollectionServiceMatchesSerial(t *testing.T) {
	// The wire-level service with striped ingestion publishes the same
	// estimates as a single-stripe service fed the same payloads.
	const k, n = 20, 600
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := loloha.NewStream(proto, loloha.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	striped, err := loloha.NewStream(proto, loloha.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]loloha.Client, n)
	for u := 0; u < n; u++ {
		cl := proto.NewClient(uint64(u) * 2654435761)
		clients[u] = cl
		reg := cl.WireRegistration()
		if err := serial.Enroll(u, reg); err != nil {
			t.Fatal(err)
		}
		if err := striped.Enroll(u, reg); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for u, cl := range clients {
			payload := cl.AppendReport(nil, (u+round)%k)
			if err := serial.Ingest(u, payload); err != nil {
				t.Fatal(err)
			}
			if err := striped.Ingest(u, payload); err != nil {
				t.Fatal(err)
			}
		}
		want := serial.CloseRound().Raw
		got := striped.CloseRound().Raw
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d est[%d]: striped %v vs serial %v", round, v, got[v], want[v])
			}
		}
	}
	if serial.Enrolled() != n || striped.Enrolled() != n {
		t.Errorf("enrolled: serial %d, striped %d, want %d", serial.Enrolled(), striped.Enrolled(), n)
	}
}
