// Tests for the Stream collection service: parity across every ingestion
// path and shard count, the options surface, round subscriptions, batch
// ingest, and a fuzzed tally path for every registered family.
package loloha_test

import (
	"fmt"
	"sync"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// registrationFor extracts a client's enrollment metadata the way a
// deployment would: LOLOHA clients send their hash seed, dBitFlipPM
// clients their sampled buckets, UE/GRR chains nothing.
func registrationFor(t *testing.T, cl loloha.Client) loloha.Registration {
	t.Helper()
	return cl.WireRegistration()
}

// TestStreamParityAllPathsAllFamilies: for every protocol family,
// estimates from a Stream — any shard count, batch or per-report ingest —
// are bit-identical to a bare aggregator fed the same payloads one at a
// time at the same seed.
func TestStreamParityAllPathsAllFamilies(t *testing.T) {
	const k, n, rounds = 24, 600, 3
	protos := map[string]func() (loloha.Protocol, error){
		"LOLOHA":     func() (loloha.Protocol, error) { return loloha.NewBiLOLOHA(k, 2, 1) },
		"chained-UE": func() (loloha.Protocol, error) { return loloha.NewRAPPOR(k, 2, 1) },
		"L-GRR":      func() (loloha.Protocol, error) { return loloha.NewLGRR(k, 2, 1) },
		"dBitFlipPM": func() (loloha.Protocol, error) { return loloha.NewDBitFlipPM(k, 8, 3, 2) },
	}
	for name, mk := range protos {
		t.Run(name, func(t *testing.T) {
			proto, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			streams := map[string]*loloha.Stream{}
			for _, shards := range []int{1, 8} {
				for _, batch := range []bool{false, true} {
					s, err := loloha.NewStream(proto, loloha.WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					streams[fmt.Sprintf("shards=%d/batch=%v", shards, batch)] = s
				}
			}
			direct := proto.NewAggregator()

			clients := make([]loloha.Client, n)
			for u := range clients {
				clients[u] = proto.NewClient(uint64(u)*2654435761 + 7)
				reg := registrationFor(t, clients[u])
				for _, s := range streams {
					if err := s.Enroll(u, reg); err != nil {
						t.Fatal(err)
					}
				}
			}
			for round := 0; round < rounds; round++ {
				userIDs := make([]int, n)
				payloads := make([][]byte, n)
				for u, cl := range clients {
					userIDs[u] = u
					payloads[u] = tallyPayload(t, proto, direct, u, cl, (u+round*5)%k)
				}
				want := direct.EndRound()
				for label, s := range streams {
					if label == "shards=1/batch=true" || label == "shards=8/batch=true" {
						if err := s.IngestBatch(userIDs, payloads); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					} else {
						for u := range userIDs {
							if err := s.Ingest(u, payloads[u]); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
						}
					}
					res := s.CloseRound()
					if res.Round != round || res.Reports != n {
						t.Fatalf("%s round %d: got round=%d reports=%d", label, round, res.Round, res.Reports)
					}
					if !equalFloats(res.Raw, want) {
						t.Fatalf("%s round %d: estimates diverged from direct aggregation", label, round)
					}
					if !equalFloats(res.Estimates, want) {
						t.Fatalf("%s round %d: post-processed estimates differ without WithPostProcess", label, round)
					}
				}
			}
		})
	}
}

// tallyPayload emits cl's report of v, tallies it into agg through the
// protocol's tallier — the generate→tally round trip every collection
// layer takes — and returns the payload.
func tallyPayload(t testing.TB, proto loloha.Protocol, agg loloha.Aggregator, u int, cl loloha.Client, v int) []byte {
	t.Helper()
	payload := cl.AppendReport(nil, v)
	if err := longitudinal.TallyPayload(proto.WireTallier(), agg, u, payload, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	return payload
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamCohortMatchesLegacyCohort: a sharded Stream cohort (WithCohort)
// matches the plain cohort loop — the same n clients, each report
// tallied into one bare aggregator — in estimates and in every client's
// privacy ledger.
func TestStreamCohortMatchesLegacyCohort(t *testing.T) {
	const k, n, seed = 20, 500, 9
	proto, err := loloha.NewOLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	legacy := make([]loloha.Client, n)
	for u := range legacy {
		legacy[u] = proto.NewClient(randsrc.Derive(seed, uint64(u)))
	}
	agg := proto.NewAggregator()
	stream, err := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if stream.CohortSize() != n {
		t.Fatalf("cohort size %d", stream.CohortSize())
	}
	values := make([]int, n)
	for round := 0; round < 3; round++ {
		for u := range values {
			values[u] = (u*3 + round*11) % k
		}
		for u, cl := range legacy {
			tallyPayload(t, proto, agg, u, cl, values[u])
		}
		want := agg.EndRound()
		res, err := stream.Collect(values)
		if err != nil {
			t.Fatal(err)
		}
		if !equalFloats(res.Raw, want) {
			t.Fatalf("round %d: Stream cohort diverged from legacy Cohort", round)
		}
		if res.Reports != n {
			t.Fatalf("round %d: reports=%d, want %d", round, res.Reports, n)
		}
	}
	for u, spent := range stream.PrivacySpent() {
		if want := legacy[u].PrivacySpent(); spent != want {
			t.Fatalf("user %d: privacy ledgers diverged: %v vs %v", u, spent, want)
		}
	}
}

// TestStreamMixesWireAndCohortReports: a wire report ingested before
// Collect lands in the same round as the cohort's reports, and the
// cohort's ID range [0..n) is fenced off from wire enrollment (a shared
// ID would tally one user twice per round).
func TestStreamMixesWireAndCohortReports(t *testing.T) {
	const k, n = 8, 40
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	wire := proto.NewClient(999)
	if err := stream.Enroll(10_000, registrationFor(t, wire)); err != nil {
		t.Fatal(err)
	}
	if err := stream.Ingest(10_000, wire.AppendReport(nil, 2)); err != nil {
		t.Fatal(err)
	}
	res, err := stream.Collect(make([]int, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != n+1 {
		t.Fatalf("reports=%d, want %d cohort + 1 wire", res.Reports, n+1)
	}
	// Cohort-owned IDs are rejected on every wire entry point.
	if err := stream.Enroll(n-1, registrationFor(t, wire)); err == nil {
		t.Fatal("wire enrollment under a cohort client ID accepted")
	}
	if err := stream.Ingest(n-1, wire.AppendReport(nil, 1)); err == nil {
		t.Fatal("wire report under a cohort client ID accepted")
	}
	if err := stream.IngestBatch([]int{0}, [][]byte{wire.AppendReport(nil, 1)}); err == nil {
		t.Fatal("batched wire report under a cohort client ID accepted")
	}
}

// TestStreamSubscribe: every published round reaches each subscriber in
// order, Close terminates the channels, and a slow subscriber misses
// rounds instead of blocking CloseRound.
func TestStreamSubscribe(t *testing.T) {
	proto, err := loloha.NewBiLOLOHA(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithRoundCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	sub := stream.Subscribe()
	for i := 0; i < 3; i++ {
		stream.CloseRound()
	}
	for i := 0; i < 3; i++ {
		res, ok := <-sub
		if !ok || res.Round != i {
			t.Fatalf("subscription round %d: ok=%v res=%+v", i, ok, res)
		}
	}
	// Overflow the buffer: rounds 3..8 publish into capacity 4, so the
	// subscriber sees exactly rounds 3,4,5,6 and misses 7,8.
	for i := 0; i < 6; i++ {
		stream.CloseRound()
	}
	stream.Close()
	var got []int
	for res := range sub {
		got = append(got, res.Round)
	}
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("lagging subscriber got rounds %v, want [3 4 5 6]", got)
	}
	if res, ok := <-stream.Subscribe(); ok {
		t.Fatalf("subscription after Close delivered %+v", res)
	}
	// History still backfills the missed rounds.
	if res, err := stream.Round(8); err != nil || res.Round != 8 {
		t.Fatalf("Round(8) after Close: %+v, %v", res, err)
	}
}

// TestStreamPostProcessAndHeavyHitters: RoundResult carries raw and
// post-processed estimates plus the tracker's heavy-hitter set.
func TestStreamPostProcessAndHeavyHitters(t *testing.T) {
	const k, n = 12, 4000
	proto, err := loloha.NewBiLOLOHA(k, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto,
		loloha.WithCohort(n, 5),
		loloha.WithPostProcess(loloha.PostSimplex),
		loloha.WithHeavyHitters(loloha.HeavyHitterConfig{Threshold: 0.2, Alpha: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, n)
	for u := range values {
		values[u] = u % 3 // 1/3 mass each on 0,1,2
	}
	res, err := stream.Collect(values)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range res.Estimates {
		if e < 0 {
			t.Fatalf("simplex-projected estimate %v < 0", e)
		}
		sum += e
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("simplex-projected estimates sum to %v", sum)
	}
	if equalFloats(res.Raw, res.Estimates) {
		t.Fatal("post-processing left estimates identical to raw (LDP noise makes that implausible)")
	}
	if len(res.HeavyHitters) != 3 {
		t.Fatalf("heavy hitters %+v, want the three 1/3-mass values", res.HeavyHitters)
	}
	for _, h := range res.HeavyHitters {
		if h.Value > 2 {
			t.Fatalf("false heavy hitter %+v", h)
		}
	}
}

// TestStreamBatchErrors: a batch with unknown, duplicate and malformed
// entries tallies the good reports and reports every failure.
func TestStreamBatchErrors(t *testing.T) {
	const k = 10
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	good := proto.NewClient(1)
	if err := stream.Enroll(0, registrationFor(t, good)); err != nil {
		t.Fatal(err)
	}
	payload := good.AppendReport(nil, 3)
	err = stream.IngestBatch(
		[]int{0, 99, 0, 0},
		[][]byte{payload, payload, {}, payload},
	)
	if err == nil {
		t.Fatal("batch with unenrolled, malformed and duplicate entries returned nil error")
	}
	res := stream.CloseRound()
	if res.Reports != 1 {
		t.Fatalf("reports=%d, want exactly the one good report", res.Reports)
	}
	if err := stream.IngestBatch([]int{0}, nil); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
}

// TestStreamOptionValidation: the constructor rejects bad options.
func TestStreamOptionValidation(t *testing.T) {
	proto, err := loloha.NewBiLOLOHA(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]loloha.StreamOption{
		"negative shards":    {loloha.WithShards(-1)},
		"zero cohort":        {loloha.WithCohort(0, 1)},
		"zero round cap":     {loloha.WithRoundCapacity(0)},
		"bad heavy hitters":  {loloha.WithHeavyHitters(loloha.HeavyHitterConfig{Threshold: 2})},
		"mismatched tracker": {loloha.WithHeavyHitters(loloha.HeavyHitterConfig{K: 99, Threshold: 0.1})},
	} {
		if _, err := loloha.NewStream(proto, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := loloha.NewStream(nil); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := stream_CollectWithoutCohort(proto); err == nil {
		t.Error("Collect without WithCohort accepted")
	}
}

func stream_CollectWithoutCohort(proto loloha.Protocol) (loloha.RoundResult, error) {
	s, err := loloha.NewStream(proto)
	if err != nil {
		return loloha.RoundResult{}, err
	}
	return s.Collect([]int{1})
}

// TestStreamConcurrentEnrollIngestSubscribe hammers the service the way
// the redesign intends it to be used: goroutines enrolling and batch- and
// per-report-ingesting concurrently while a subscriber streams results
// across rounds. Run with -race.
func TestStreamConcurrentEnrollIngestSubscribe(t *testing.T) {
	const k, n, rounds, workers = 16, 240, 4, 6
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithShards(4), loloha.WithRoundCapacity(rounds))
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]loloha.Client, n)
	regs := make([]loloha.Registration, n)
	for u := range clients {
		clients[u] = proto.NewClient(uint64(u) + 1)
		regs[u] = registrationFor(t, clients[u])
	}

	sub := stream.Subscribe()
	var subWG sync.WaitGroup
	subWG.Add(1)
	var received []loloha.RoundResult
	go func() {
		defer subWG.Done()
		for res := range sub {
			received = append(received, res)
		}
	}()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo, hi := w*n/workers, (w+1)*n/workers
				var ids []int
				var payloads [][]byte
				for u := lo; u < hi; u++ {
					if err := stream.Enroll(u, regs[u]); err != nil {
						t.Error(err)
						return
					}
					payload := clients[u].AppendReport(nil, u%k)
					if u%2 == 0 {
						if err := stream.Ingest(u, payload); err != nil {
							t.Error(err)
							return
						}
					} else {
						ids = append(ids, u)
						payloads = append(payloads, payload)
					}
				}
				if err := stream.IngestBatch(ids, payloads); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		if res := stream.CloseRound(); res.Reports != n {
			t.Fatalf("round %d: reports=%d, want %d", round, res.Reports, n)
		}
	}
	stream.Close()
	subWG.Wait()
	if len(received) != rounds {
		t.Fatalf("subscriber received %d rounds, want %d", len(received), rounds)
	}
	for i, res := range received {
		if res.Round != i {
			t.Fatalf("subscription out of order: got round %d at position %d", res.Round, i)
		}
	}
	if stream.Enrolled() != n {
		t.Fatalf("enrolled %d, want %d", stream.Enrolled(), n)
	}
}

// fuzzSpec returns a small feasible spec for a registered family.
func fuzzSpec(family string) loloha.ProtocolSpec {
	switch family {
	case "dBitFlipPM":
		return loloha.ProtocolSpec{Family: family, K: 24, B: 8, D: 3, EpsInf: 2}
	case "1BitFlipPM", "bBitFlipPM":
		return loloha.ProtocolSpec{Family: family, K: 24, B: 8, EpsInf: 2}
	case "LOLOHA":
		return loloha.ProtocolSpec{Family: family, K: 24, G: 3, EpsInf: 2, Eps1: 1}
	default:
		return loloha.ProtocolSpec{Family: family, K: 24, EpsInf: 2, Eps1: 1}
	}
}

// joinedErrors counts the errors joined into err.
func joinedErrors(err error) int {
	if err == nil {
		return 0
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return len(j.Unwrap())
	}
	return 1
}

// FuzzStreamIngestBatch drives every registered family's tally path with
// hostile input: an arbitrary enrollment (hash seed and sampled buckets)
// for two users and arbitrary payloads, through Ingest, IngestBatch or
// IngestColumnar (whose registration columns do the enrolling). It must
// never panic, the published report count must agree with the errors
// returned (one per rejected report), and the stream must keep accepting
// work afterwards — a shard left locked by a failed tally would hang the
// follow-up round.
func FuzzStreamIngestBatch(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint64(7), []byte{0, 1, 2}, []byte{}, []byte{0x01})
	f.Add(uint8(3), uint8(0), uint64(1), []byte{}, []byte{0x00}, []byte{0xFF, 0xFF, 0xFF})
	f.Add(uint8(9), uint8(1), uint64(0), []byte{0, 1, 0x7F}, []byte{0x07}, []byte{0x05})
	f.Add(uint8(10), uint8(2), uint64(0), []byte{0, 1, 0xFF}, []byte{0x07}, []byte{0x05})
	f.Add(uint8(10), uint8(0), uint64(0), []byte{0, 1, 2, 3}, []byte{0x07}, []byte{0x05})
	f.Add(uint8(6), uint8(2), uint64(99), []byte{}, []byte{0x01}, []byte{0x09})
	families := loloha.Families()
	protos := make([]loloha.Protocol, len(families))
	for i, family := range families {
		p, err := fuzzSpec(family).Build()
		if err != nil {
			f.Fatalf("%s: %v", family, err)
		}
		protos[i] = p
	}
	f.Fuzz(func(t *testing.T, fam, mode uint8, seed uint64, buckets, a, b []byte) {
		proto := protos[int(fam)%len(protos)]
		stream, err := loloha.NewStream(proto, loloha.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		reg := loloha.Registration{HashSeed: seed}
		for _, x := range buckets {
			if mode%3 == 2 {
				reg.Sampled = append(reg.Sampled, int(x)) // columnar buckets are unsigned
			} else {
				reg.Sampled = append(reg.Sampled, int(int8(x)))
			}
		}
		ids, payloads := []int{0, 1}, [][]byte{a, b}
		var errs int
		switch mode % 3 {
		case 0:
			for i, u := range ids {
				if err := stream.Enroll(u, reg); err != nil {
					t.Fatal(err)
				}
				if stream.Ingest(u, payloads[i]) != nil {
					errs++
				}
			}
		case 1:
			for _, u := range ids {
				if err := stream.Enroll(u, reg); err != nil {
					t.Fatal(err)
				}
			}
			errs = joinedErrors(stream.IngestBatch(ids, payloads))
		case 2:
			stride := proto.WireTallier().PayloadStride()
			w, err := loloha.NewColumnarWriter(proto.Spec().Hash(), stride)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WithRegistrations(len(reg.Sampled)); err != nil {
				t.Skip("registration shape not encodable")
			}
			for i, u := range ids {
				cell := append(append([]byte(nil), payloads[i]...), make([]byte, stride)...)[:stride]
				if err := w.AddWithRegistration(u, cell, reg); err != nil {
					t.Fatal(err)
				}
			}
			var batch loloha.ColumnarBatch
			if err := loloha.DecodeColumnar(w.AppendTo(nil), &batch); err != nil {
				t.Fatal(err)
			}
			errs = joinedErrors(stream.IngestColumnar(&batch))
		}
		res := stream.CloseRound()
		if res.Reports+errs != len(ids) {
			t.Fatalf("%s mode %d: %d reports tallied and %d rejected, want %d in all",
				proto.Name(), mode%3, res.Reports, errs, len(ids))
		}

		// The stream still takes work on every shard: genuine users
		// enroll and report into the next round.
		const genuine = 16
		for u := 2; u < 2+genuine; u++ {
			cl := proto.NewClient(uint64(u))
			if err := stream.Enroll(u, cl.WireRegistration()); err != nil {
				t.Fatal(err)
			}
			if err := stream.Ingest(u, cl.AppendReport(nil, u)); err != nil {
				t.Fatalf("%s: genuine report after a hostile round: %v", proto.Name(), err)
			}
		}
		if got := stream.CloseRound().Reports; got != genuine {
			t.Fatalf("%s: follow-up round tallied %d reports, want %d", proto.Name(), got, genuine)
		}
	})
}
