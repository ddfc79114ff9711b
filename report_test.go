// Tests for the allocation-free report-generation path: every client
// family must emit payloads of exactly its tallier's stride that its wire
// decoder accepts, deterministically per seed, and — the headline
// guarantee mirroring the ingestion side's TestIngestSteadyStateZeroAllocs
// — allocate nothing per report in steady state, pinned with
// testing.AllocsPerRun.
package loloha_test

import (
	"bytes"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// cohortSeed mirrors how WithCohort seeds client u from the stream seed.
func cohortSeed(seed, u uint64) uint64 { return randsrc.Derive(seed, u) }

// reportProtocols builds one protocol per family at domain size k.
func reportProtocols(t testing.TB, k int) map[string]loloha.Protocol {
	t.Helper()
	protos := map[string]loloha.Protocol{}
	add := func(name string, p loloha.Protocol, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protos[name] = p
	}
	p1, err1 := loloha.NewBiLOLOHA(k, 2, 1)
	add("LOLOHA", p1, err1)
	p2, err2 := loloha.NewLOSUE(k, 2, 1)
	add("chained-UE", p2, err2)
	p3, err3 := loloha.NewLGRR(k, 2, 1)
	add("L-GRR", p3, err3)
	p4, err4 := loloha.NewDBitFlipPM(k, k/4, 6, 2)
	add("dBitFlipPM", p4, err4)
	return protos
}

// TestEveryClientImplementsAppendReporter: the emission half of the
// family contract matches the ingestion half — every payload a client
// emits is exactly its protocol's tallier stride.
func TestEveryClientImplementsAppendReporter(t *testing.T) {
	for name, proto := range reportProtocols(t, 64) {
		stride := proto.WireTallier().PayloadStride()
		if got := len(proto.NewClient(1).AppendReport(nil, 3)); got != stride {
			t.Errorf("%s client emits %d-byte payloads, tallier stride is %d", name, got, stride)
		}
	}
}

// TestAppendReportMatchesBoxedReport: for every family, same-seed clients
// emit identical wire bytes round for round, and every payload decodes to
// exactly one report under the family's wire decoder — the contract
// collection layers rely on when they replay or shard a cohort.
func TestAppendReportMatchesBoxedReport(t *testing.T) {
	const k, rounds = 96, 12
	for name, proto := range reportProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			refCl := proto.NewClient(17)
			appendCl := proto.NewClient(17)
			var ref, buf []byte
			for i := 0; i < rounds; i++ {
				v := (i * 13) % k
				ref = refCl.AppendReport(ref[:0], v)
				buf = appendCl.AppendReport(buf[:0], v)
				if !bytes.Equal(ref, buf) {
					t.Fatalf("round %d: same-seed clients emitted %x and %x", i, ref, buf)
				}
				if err := decodeReport(proto, buf, appendCl.WireRegistration()); err != nil {
					t.Fatalf("round %d: payload %x rejected by the wire decoder: %v", i, buf, err)
				}
			}
		})
	}
}

// TestAppendReportSteadyStateZeroAllocs pins the acceptance criterion:
// once a client's memoized caches are warm for its working set and the
// caller's buffer has capacity, AppendReport performs zero allocations per
// report for every family.
func TestAppendReportSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const k, working, runs = 256, 8, 200
	for name, proto := range reportProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			cl := proto.NewClient(3)
			buf := make([]byte, 0, (k+7)/8)
			// Warm-up: materialize the memoized state for the working set
			// (first-sight cost, not steady state).
			for v := 0; v < working; v++ {
				buf = cl.AppendReport(buf[:0], v)
			}
			v := 0
			avg := testing.AllocsPerRun(runs, func() {
				buf = cl.AppendReport(buf[:0], v%working)
				v++
			})
			if avg != 0 {
				t.Errorf("steady-state AppendReport allocates %.2f times per report, want 0", avg)
			}
		})
	}
}

// TestStreamCollectUsesWireFastPath: a cohort Stream and hand-driven
// clients tallied serially into one bare aggregator must agree bit for
// bit, so sharded collection changes the cost model, not the estimates.
func TestStreamCollectUsesWireFastPath(t *testing.T) {
	const k, n, rounds = 32, 200, 3
	for name, proto := range reportProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			stream, err := loloha.NewStream(proto, loloha.WithCohort(n, 5), loloha.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			// The reference: the same deterministic cohort, tallied one
			// payload at a time.
			clients := make([]loloha.Client, n)
			for u := range clients {
				clients[u] = proto.NewClient(cohortSeed(5, uint64(u)))
			}
			agg := proto.NewAggregator()
			values := make([]int, n)
			for round := 0; round < rounds; round++ {
				for u := range values {
					values[u] = (u + round*7) % k
				}
				res, err := stream.Collect(values)
				if err != nil {
					t.Fatal(err)
				}
				for u, cl := range clients {
					tallyPayload(t, proto, agg, u, cl, values[u])
				}
				if want := agg.EndRound(); !equalFloats(res.Raw, want) {
					t.Fatalf("round %d: Collect estimates diverged from the serial path", round)
				}
			}
		})
	}
}
