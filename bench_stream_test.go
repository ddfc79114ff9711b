// Benchmarks for the Stream ingestion paths, per entry point: per-report
// Ingest (one shard-lock acquisition per payload) vs IngestBatch (one lock
// acquisition per shard per batch) vs IngestColumnar. Payloads tally
// straight into the shard aggregator with zero steady-state allocations.
//
// Workers ingest concurrently, the deployment the service is built for.
// BENCH_ingest.json records the checked-in baseline.
//
//	go test -run xxx -bench 'IngestPath' -benchmem .
package loloha_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

func BenchmarkIngestPath(b *testing.B) {
	const k, n, batchSize = 64, 50_000, 4096
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // still measures lock contention on small boxes
	}
	type seeded interface{ HashSeed() uint64 }
	for _, shards := range []int{1, 2, 4, 8} {
		proto, err := loloha.NewBiLOLOHA(k, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := loloha.NewStream(proto, loloha.WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		userIDs := make([]int, n)
		payloads := make([][]byte, n)
		for u := 0; u < n; u++ {
			cl := proto.NewClient(uint64(u))
			if err := stream.Enroll(u, loloha.Registration{HashSeed: cl.(seeded).HashSeed()}); err != nil {
				b.Fatal(err)
			}
			userIDs[u] = u
			payloads[u] = cl.AppendReport(nil, u%k)
		}
		// Each worker owns a contiguous block of users and ingests it
		// either one report or one batch slice at a time.
		ingestRound := func(b *testing.B, batch bool) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lo, hi := w*n/workers, (w+1)*n/workers
					if batch {
						for ; lo < hi; lo += batchSize {
							end := min(lo+batchSize, hi)
							if err := stream.IngestBatch(userIDs[lo:end], payloads[lo:end]); err != nil {
								b.Error(err)
								return
							}
						}
						return
					}
					for u := lo; u < hi; u++ {
						if err := stream.Ingest(u, payloads[u]); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			benchSink = stream.CloseRound()
		}
		for _, batch := range []bool{false, true} {
			name := "tally-per-report"
			if batch {
				name = "tally-batch"
			}
			b.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ingestRound(b, batch)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}

// BenchmarkIngestColumnar measures the columnar fast path against the
// same workload as BenchmarkIngestPath's tally/batch rows: each worker
// owns a block of pre-encoded columnar batches and replays decode →
// IngestColumnar every round, the shape of a daemon draining FrameColumnar
// bodies. Compare against tally-batch at equal shard counts for the
// per-report-framing speedup.
//
//	go test -run xxx -bench 'IngestColumnar' -benchmem .
func BenchmarkIngestColumnar(b *testing.B) {
	const k, n, batchSize = 64, 50_000, 4096
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	type seeded interface{ HashSeed() uint64 }
	for _, shards := range []int{1, 2, 4, 8} {
		proto, err := loloha.NewBiLOLOHA(k, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := loloha.NewStream(proto, loloha.WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		stride := proto.WireTallier().PayloadStride()
		w, err := loloha.NewColumnarWriter(proto.Spec().Hash(), stride)
		if err != nil {
			b.Fatal(err)
		}
		// One encoded batch per batchSize block of users, partitioned over
		// the workers below.
		var encoded [][]byte
		for u := 0; u < n; u++ {
			cl := proto.NewClient(uint64(u))
			if err := stream.Enroll(u, loloha.Registration{HashSeed: cl.(seeded).HashSeed()}); err != nil {
				b.Fatal(err)
			}
			if err := w.Add(u, cl.AppendReport(nil, u%k)); err != nil {
				b.Fatal(err)
			}
			if w.Count() == batchSize || u == n-1 {
				encoded = append(encoded, w.AppendTo(nil))
				w.Reset()
			}
		}
		ingestRound := func(b *testing.B) {
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					var batch loloha.ColumnarBatch
					for i := wk; i < len(encoded); i += workers {
						if err := loloha.DecodeColumnar(encoded[i], &batch); err != nil {
							b.Error(err)
							return
						}
						if err := stream.IngestColumnar(&batch); err != nil {
							b.Error(err)
							return
						}
					}
				}(wk)
			}
			wg.Wait()
			benchSink = stream.CloseRound()
		}
		b.Run(fmt.Sprintf("columnar/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ingestRound(b)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}
