package longitudinal_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

// TestCollectorTallyDirectMatchesAddPath: a cohort collected on a
// server.Stream must produce bit-identical estimates to a serial loop
// that emits each report and tallies it into one bare aggregator, per
// family and shard count — the gate for simulation.Replay/RunMSE and
// Stream.Collect.
func TestCollectorTallyDirectMatchesAddPath(t *testing.T) {
	const k, n, rounds, seed = 24, 300, 4, 7
	protos := map[string]longitudinal.Protocol{}
	if p, err := longitudinal.NewRAPPOR(k, 2, 1); err == nil {
		protos["RAPPOR"] = p
	}
	if p, err := longitudinal.NewLGRR(k, 2, 1); err == nil {
		protos["L-GRR"] = p
	}
	if p, err := longitudinal.NewDBitFlipPM(k, 8, 3, 2); err == nil {
		protos["dBitFlipPM"] = p
	}
	for name, proto := range protos {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				plain := proto.NewAggregator()
				clients := make([]longitudinal.Client, n)
				for u := range clients {
					clients[u] = proto.NewClient(randsrc.Derive(seed, uint64(u)))
				}
				stream, err := server.NewStream(proto, server.WithCohort(n, seed), server.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				values := make([]int, n)
				for round := 0; round < rounds; round++ {
					for u := range values {
						values[u] = (u + round*3) % k
						cl := clients[u]
						payload := cl.AppendReport(nil, values[u])
						if err := longitudinal.TallyPayload(proto.WireTallier(), plain, u, payload, cl.WireRegistration()); err != nil {
							t.Fatal(err)
						}
					}
					estP := plain.EndRound()
					res, err := stream.Collect(values)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(estP, res.Raw) {
						t.Fatalf("round %d: collected estimates diverged from the serial path", round)
					}
				}
			})
		}
	}
}
