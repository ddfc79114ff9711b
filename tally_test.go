// Tests for tally-direct ingestion: the ColumnarTallier path must be
// bit-identical to the in-memory reference (Client.Report into
// Aggregator.Add) for every protocol family and shard count, it must
// reject exactly the payloads the family's wire decoder rejects, hostile
// enrollments must fail cleanly instead of panicking, and the
// steady-state wire hot path must not allocate — testing.AllocsPerRun
// pins Ingest at 0 allocs/report and IngestBatch at 0 allocs/batch so
// regressions fail loudly instead of showing up as GC pressure under
// production load.
package loloha_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// tallyProtocols builds one protocol per family class.
func tallyProtocols(t testing.TB, k int) map[string]loloha.Protocol {
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
	p2, err2 := loloha.NewRAPPOR(k, 2, 1)
	add("chained-UE", p2, err2)
	p3, err3 := loloha.NewLGRR(k, 2, 1)
	add("L-GRR", p3, err3)
	p4, err4 := loloha.NewDBitFlipPM(k, 8, 3, 2)
	add("dBitFlipPM", p4, err4)
	return protos
}

// decodeReport is the family's wire decoder as a validity oracle: nil
// when payload decodes to exactly one report for the enrollment reg.
func decodeReport(proto loloha.Protocol, payload []byte, reg loloha.Registration) error {
	var rest []byte
	var err error
	switch p := proto.(type) {
	case *core.Protocol:
		_, rest, err = core.DecodeReport(payload, p.G(), reg.HashSeed)
	case *longitudinal.ChainUE:
		_, rest, err = longitudinal.DecodeUEReport(payload, p.K())
	case *longitudinal.LGRR:
		_, rest, err = longitudinal.DecodeGRRValueReport(payload, p.K())
	case *longitudinal.DBitFlipPM:
		_, rest, err = longitudinal.DecodeDBitReport(payload, reg.Sampled)
	default:
		return fmt.Errorf("no wire decoder for %T", proto)
	}
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	return err
}

// TestTallyDirectMatchesDecoderPath is the acceptance gate of tally-direct
// ingestion: for every protocol family × shard count, a stream fed wire
// payloads produces estimates bit-identical to a bare aggregator fed the
// boxed reports those payloads encode (Client.Report → Aggregator.Add),
// through both per-report and batch ingestion.
func TestTallyDirectMatchesDecoderPath(t *testing.T) {
	const k, n, rounds = 24, 400, 3
	for name, proto := range tallyProtocols(t, k) {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				tally, err := loloha.NewStream(proto, loloha.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				ref := proto.NewAggregator()
				clients := make([]loloha.Client, n)
				for u := range clients {
					clients[u] = proto.NewClient(uint64(u)*0x9E3779B9 + 1)
					if err := tally.Enroll(u, registrationFor(t, clients[u])); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < rounds; round++ {
					userIDs := make([]int, n)
					payloads := make([][]byte, n)
					for u, cl := range clients {
						rep := cl.Report((u + round*7) % k)
						ref.Add(u, rep)
						userIDs[u] = u
						payloads[u] = rep.AppendBinary(nil)
					}
					// Odd rounds batch, even rounds go report by report, so
					// both entry points are exercised.
					if round%2 == 1 {
						if err := tally.IngestBatch(userIDs, payloads); err != nil {
							t.Fatal(err)
						}
					} else {
						for u := range userIDs {
							if err := tally.Ingest(u, payloads[u]); err != nil {
								t.Fatal(err)
							}
						}
					}
					got := tally.CloseRound()
					if got.Reports != n {
						t.Fatalf("round %d: %d reports, want %d", round, got.Reports, n)
					}
					if !equalFloats(got.Raw, ref.EndRound()) {
						t.Fatalf("round %d: tally-direct estimates diverged from the Report/Add reference", round)
					}
				}
			})
		}
	}
}

// TestTallyDirectRejectsWhatDecoderRejects: malformed payloads —
// truncated, trailing bytes, out-of-range values, nonzero padding bits —
// are rejected by both the tally path and the family's wire decoder, and
// a rejected payload tallies nothing.
func TestTallyDirectRejectsWhatDecoderRejects(t *testing.T) {
	const k = 24
	for name, proto := range tallyProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			tally, err := loloha.NewStream(proto, loloha.WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			cl := proto.NewClient(7)
			reg := registrationFor(t, cl)
			if err := tally.Enroll(0, reg); err != nil {
				t.Fatal(err)
			}
			good := cl.Report(3).AppendBinary(nil)
			bad := map[string][]byte{
				"empty":     {},
				"truncated": good[:len(good)-1],
				"trailing":  append(append([]byte{}, good...), 0xAA),
			}
			switch proto.(type) {
			case *core.Protocol, *longitudinal.LGRR:
				bad["out-of-range"] = []byte{0xFF} // a value byte past the domain
			case *longitudinal.DBitFlipPM:
				// d = 3: bits 3..7 of the one payload byte are padding.
				padded := append([]byte{}, good...)
				padded[len(padded)-1] |= 0x80
				bad["nonzero-padding"] = padded
			}
			for label, payload := range bad {
				tallyErr := tally.Ingest(0, payload)
				decodeErr := decodeReport(proto, payload, reg)
				if tallyErr == nil || decodeErr == nil {
					t.Fatalf("%s payload: tally err=%v, decoder err=%v, want both to reject", label, tallyErr, decodeErr)
				}
			}
			if got := tally.CloseRound().Reports; got != 0 {
				t.Fatalf("rejected payloads tallied %d reports", got)
			}
		})
	}
}

// TestHostileDBitEnrollment: a dBitFlipPM enrollment whose sampled set
// has the wrong size or a bucket outside [0,b) comes off the wire, so
// tallying against it must fail with an error — not panic — on every
// ingestion path, and the shard must keep taking work afterwards (a panic
// under a shard lock would leave it held).
func TestHostileDBitEnrollment(t *testing.T) {
	proto, err := loloha.NewDBitFlipPM(24, 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	stride, _ := loloha.ColumnarStrideOf(proto)
	cell := make([]byte, stride)
	cell[0] = 0xFF // every sampled slot set: every bucket is touched
	for _, hostile := range [][]int{{0, 1, 999}, {0, 1, 2, 999}, {5, -1, 2}, {1}} {
		reg := loloha.Registration{Sampled: hostile}
		paths := map[string]func(s *loloha.Stream) error{
			"Ingest": func(s *loloha.Stream) error {
				if err := s.Enroll(7, reg); err != nil {
					return err
				}
				return s.Ingest(7, cell)
			},
			"IngestBatch": func(s *loloha.Stream) error {
				if err := s.Enroll(7, reg); err != nil {
					return err
				}
				return s.IngestBatch([]int{7}, [][]byte{cell})
			},
			"IngestColumnar": func(s *loloha.Stream) error {
				w, err := loloha.NewColumnarWriter(loloha.SpecHashOf(proto), stride)
				if err != nil {
					return err
				}
				if err := w.WithRegistrations(len(hostile)); err != nil {
					return err
				}
				if err := w.AddWithRegistration(7, cell, reg); err != nil {
					return err
				}
				var batch loloha.ColumnarBatch
				if err := loloha.DecodeColumnar(w.AppendTo(nil), &batch); err != nil {
					return err
				}
				return s.IngestColumnar(&batch)
			},
		}
		for path, ingest := range paths {
			t.Run(fmt.Sprintf("%s/%v", path, hostile), func(t *testing.T) {
				if path == "IngestColumnar" && slices.Min(hostile) < 0 {
					t.Skip("negative buckets are not encodable in a columnar batch")
				}
				s, err := loloha.NewStream(proto, loloha.WithShards(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := ingest(s); err == nil || !strings.Contains(err.Error(), "bucket") {
					t.Fatalf("hostile enrollment %v: err = %v, want a sampled-bucket rejection", hostile, err)
				}
				// The (single) shard still enrolls and tallies.
				cl := proto.NewClient(1).(loloha.AppendReporter)
				if err := s.Enroll(8, cl.WireRegistration()); err != nil {
					t.Fatal(err)
				}
				if err := s.Ingest(8, cl.AppendReport(nil, 3)); err != nil {
					t.Fatal(err)
				}
				if got := s.CloseRound().Reports; got != 1 {
					t.Fatalf("round after a hostile report tallied %d reports, want 1", got)
				}
			})
		}
	}
}

// TestEndRoundZeroesImportedTallies: for every registered family, counts
// imported into an open round — as a merge envelope delivers them — are
// consumed by EndRound, even when they arrive with a report count of
// zero, so nothing leaks into the next round.
func TestEndRoundZeroesImportedTallies(t *testing.T) {
	type snapshotTallier interface {
		ExportTally(dst []int64) ([]int64, int)
		ImportTally(counts []int64, n int) error
	}
	for _, family := range loloha.Families() {
		for _, n := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/n=%d", family, n), func(t *testing.T) {
				proto, err := fuzzSpec(family).Build()
				if err != nil {
					t.Fatal(err)
				}
				agg := proto.NewAggregator()
				st := agg.(snapshotTallier)
				counts, _ := st.ExportTally(nil)
				for i := range counts {
					counts[i] = int64(i + 5)
				}
				if err := st.ImportTally(counts, n); err != nil {
					t.Fatal(err)
				}
				agg.EndRound()
				after, gotN := st.ExportTally(nil)
				if gotN != 0 {
					t.Errorf("report count %d survived EndRound", gotN)
				}
				for i, c := range after {
					if c != 0 {
						t.Fatalf("count %d = %d survived EndRound", i, c)
					}
				}
			})
		}
	}
}

// TestIngestSteadyStateZeroAllocs pins the headline guarantee of the
// tally-direct refactor: after enrollment and a warm-up round, wire Ingest
// of every built-in protocol performs zero allocations per report.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const k, n, runs = 24, 256, 100
	for name, proto := range tallyProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			stream, err := loloha.NewStream(proto, loloha.WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			payloads := make([][]byte, n)
			for u := 0; u < n; u++ {
				cl := proto.NewClient(uint64(u) + 3)
				if err := stream.Enroll(u, registrationFor(t, cl)); err != nil {
					t.Fatal(err)
				}
				payloads[u] = cl.Report(u % k).AppendBinary(nil)
			}
			// Warm-up round: first-sight work (the LOLOHA per-user hash
			// table) is enrollment-time cost, not steady state.
			for u := 0; u < n; u++ {
				if err := stream.Ingest(u, payloads[u]); err != nil {
					t.Fatal(err)
				}
			}
			stream.CloseRound()
			u := 0
			avg := testing.AllocsPerRun(runs, func() {
				if err := stream.Ingest(u, payloads[u]); err != nil {
					t.Fatal(err)
				}
				u++
			})
			if avg != 0 {
				t.Errorf("steady-state Ingest allocates %.2f times per report, want 0", avg)
			}
		})
	}
}

// TestIngestBatchScratchReuse: steady-state batches reuse pooled working
// memory — zero allocations per batch.
func TestIngestBatchScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const k, batchSize, runs = 24, 64, 20
	proto := tallyProtocols(t, k)["LOLOHA"]
	t.Run("tally", func(t *testing.T) {
		stream, err := loloha.NewStream(proto, loloha.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		nBatches := runs + 2
		ids := make([][]int, nBatches)
		payloads := make([][][]byte, nBatches)
		u := 0
		for b := range ids {
			ids[b] = make([]int, batchSize)
			payloads[b] = make([][]byte, batchSize)
			for i := 0; i < batchSize; i++ {
				cl := proto.NewClient(uint64(u)*31 + 5)
				if err := stream.Enroll(u, registrationFor(t, cl)); err != nil {
					t.Fatal(err)
				}
				ids[b][i] = u
				payloads[b][i] = cl.Report(u % k).AppendBinary(nil)
				u++
			}
		}
		// Warm-up: populate the scratch pool and the per-user hash tables.
		for b := range ids {
			if err := stream.IngestBatch(ids[b], payloads[b]); err != nil {
				t.Fatal(err)
			}
		}
		stream.CloseRound()
		b := 0
		avg := testing.AllocsPerRun(runs, func() {
			if err := stream.IngestBatch(ids[b], payloads[b]); err != nil {
				t.Fatal(err)
			}
			b++
		})
		if avg != 0 {
			t.Errorf("steady-state IngestBatch allocates %.2f times per batch, want 0", avg)
		}
	})
}
