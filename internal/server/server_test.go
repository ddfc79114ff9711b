package server

import (
	"math"
	"sync"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func registrationOf(cl longitudinal.Client) Registration {
	switch c := cl.(type) {
	case *core.Client:
		return Registration{HashSeed: c.HashSeed()}
	default:
		return Registration{}
	}
}

// The TestCollection* tests pin the wire-level service contract of
// Stream: enrollment, per-report ingestion, round publication and access.

func TestCollectionMatchesDirectAggregation(t *testing.T) {
	// Byte path (Enroll/Ingest/CloseRound) vs a bare aggregator fed the
	// same payloads through the tallier: identical estimates for every
	// protocol family.
	const k, n, rounds = 24, 1200, 3
	protos := map[string]longitudinal.Protocol{}
	if p, err := core.NewBinary(k, 2, 1); err == nil {
		protos["LOLOHA"] = p
	}
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
		col := mustStream(t, proto)
		direct := proto.NewAggregator()

		clients := make([]longitudinal.Client, n)
		for u := range clients {
			clients[u] = proto.NewClient(randsrc.Derive(9, uint64(u)))
			reg := registrationOf(clients[u])
			// dBit clients expose sampled buckets through their first
			// report; enroll after we see it below.
			if name != "dBitFlipPM" {
				if err := col.Enroll(u, reg); err != nil {
					t.Fatalf("%s: enroll: %v", name, err)
				}
			}
		}
		r := randsrc.NewSeeded(33)
		for round := 0; round < rounds; round++ {
			for u, cl := range clients {
				v := (u + round*r.Intn(k)) % k
				rep := cl.AppendReport(nil, v)
				if err := longitudinal.TallyPayload(proto.WireTallier(), direct, u, rep, cl.WireRegistration()); err != nil {
					t.Fatalf("%s: direct tally: %v", name, err)
				}
				if name == "dBitFlipPM" && round == 0 {
					if err := col.Enroll(u, Registration{Sampled: cl.WireRegistration().Sampled}); err != nil {
						t.Fatalf("%s: enroll: %v", name, err)
					}
				}
				if err := col.Ingest(u, rep); err != nil {
					t.Fatalf("%s: ingest: %v", name, err)
				}
			}
			wire := col.CloseRound().Raw
			want := direct.EndRound()
			for v := range want {
				if math.Abs(wire[v]-want[v]) > 1e-15 {
					t.Fatalf("%s round %d: wire estimate %v != direct %v",
						name, round, wire[v], want[v])
				}
			}
		}
		if col.Rounds() != rounds || col.Enrolled() != n {
			t.Errorf("%s: rounds=%d enrolled=%d", name, col.Rounds(), col.Enrolled())
		}
	}
}

func TestCollectionRejectsUnknownAndDuplicate(t *testing.T) {
	proto, _ := core.NewBinary(10, 2, 1)
	col := mustStream(t, proto)
	cl := proto.NewClient(1).(*core.Client)
	payload := cl.AppendReport(nil, 3)

	if err := col.Ingest(0, payload); err == nil {
		t.Error("unenrolled ingest accepted")
	}
	if err := col.Enroll(0, Registration{HashSeed: cl.HashSeed()}); err != nil {
		t.Fatal(err)
	}
	if err := col.Ingest(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := col.Ingest(0, payload); err == nil {
		t.Error("duplicate report in one round accepted")
	}
	col.CloseRound()
	if err := col.Ingest(0, cl.AppendReport(nil, 3)); err != nil {
		t.Errorf("fresh round report rejected: %v", err)
	}
}

func TestCollectionEnrollmentConflicts(t *testing.T) {
	proto, _ := core.NewBinary(10, 2, 1)
	col := mustStream(t, proto)
	if err := col.Enroll(0, Registration{HashSeed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := col.Enroll(0, Registration{HashSeed: 5}); err != nil {
		t.Errorf("idempotent re-enroll rejected: %v", err)
	}
	if err := col.Enroll(0, Registration{HashSeed: 6}); err == nil {
		t.Error("conflicting re-enroll accepted")
	}
}

func TestCollectionEnrollmentSampledBucketConflicts(t *testing.T) {
	// Regression: re-enrollment used to compare only len(Sampled), so a
	// dBitFlipPM user re-enrolling with different buckets of the same
	// length was silently accepted — corrupting support counts.
	proto, _ := longitudinal.NewDBitFlipPM(20, 10, 3, 2)
	col := mustStream(t, proto)
	if err := col.Enroll(0, Registration{Sampled: []int{1, 4, 7}}); err != nil {
		t.Fatal(err)
	}
	if err := col.Enroll(0, Registration{Sampled: []int{1, 4, 7}}); err != nil {
		t.Errorf("idempotent re-enroll rejected: %v", err)
	}
	if err := col.Enroll(0, Registration{Sampled: []int{1, 4, 8}}); err == nil {
		t.Error("re-enroll with different sampled buckets of equal length accepted")
	}
	if err := col.Enroll(0, Registration{Sampled: []int{1, 4}}); err == nil {
		t.Error("re-enroll with fewer sampled buckets accepted")
	}
}

func TestCollectionPublishedRoundsImmutable(t *testing.T) {
	// Regression: CloseRound and Round used to alias the internal history
	// slice, so a caller mutating the result corrupted published rounds.
	proto, _ := core.NewBinary(12, 2, 1)
	col := mustStream(t, proto)
	cl := proto.NewClient(3).(*core.Client)
	if err := col.Enroll(0, Registration{HashSeed: cl.HashSeed()}); err != nil {
		t.Fatal(err)
	}
	if err := col.Ingest(0, cl.AppendReport(nil, 5)); err != nil {
		t.Fatal(err)
	}
	closed := col.CloseRound().Raw
	want := append([]float64(nil), closed...)
	for i := range closed {
		closed[i] = math.Inf(1) // caller scribbles on the returned slice
	}
	res, err := col.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Raw
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("round history corrupted by caller mutation: est[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	for i := range got {
		got[i] = -1 // scribbling on Round's result must not stick either
	}
	again, err := col.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if again.Raw[v] != want[v] {
			t.Fatalf("round history corrupted via Round aliasing: est[%d] = %v, want %v", v, again.Raw[v], want[v])
		}
	}
}

func TestCollectionRejectsMalformedPayloads(t *testing.T) {
	proto, _ := longitudinal.NewRAPPOR(64, 2, 1)
	col := mustStream(t, proto)
	if err := col.Enroll(0, Registration{}); err != nil {
		t.Fatal(err)
	}
	if err := col.Ingest(0, []byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	long := make([]byte, 64/8+3)
	if err := col.Ingest(0, long); err == nil {
		t.Error("payload with trailing bytes accepted")
	}
}

func TestCollectionRoundAccess(t *testing.T) {
	proto, _ := longitudinal.NewLGRR(6, 2, 1)
	col := mustStream(t, proto)
	if _, err := col.Round(0); err == nil {
		t.Error("unpublished round accessible")
	}
	col.CloseRound()
	if _, err := col.Round(0); err != nil {
		t.Errorf("published round inaccessible: %v", err)
	}
	if _, err := col.Round(1); err == nil {
		t.Error("future round accessible")
	}
}

func TestCollectionConcurrentIngest(t *testing.T) {
	// The service is documented thread-safe: hammer it from goroutines.
	const k, n = 16, 400
	proto, _ := core.NewBinary(k, 2, 1)
	col := mustStream(t, proto)
	payloads := make([][]byte, n)
	for u := 0; u < n; u++ {
		cl := proto.NewClient(uint64(u)).(*core.Client)
		if err := col.Enroll(u, Registration{HashSeed: cl.HashSeed()}); err != nil {
			t.Fatal(err)
		}
		payloads[u] = cl.AppendReport(nil, u%k)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := col.Ingest(u, payloads[u]); err != nil {
				errs <- err
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	est := col.CloseRound().Raw
	sum := 0.0
	for _, e := range est {
		sum += e
	}
	if math.Abs(sum-1) > 0.5 {
		t.Errorf("estimates sum %v after concurrent ingest", sum)
	}
}

func TestForProtocolUnknownType(t *testing.T) {
	if _, err := NewStream(nil); err == nil {
		t.Error("nil protocol accepted")
	}
}

// mustStream returns a stream for proto with the default options.
func mustStream(t *testing.T, proto longitudinal.Protocol) *Stream {
	t.Helper()
	s, err := NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
