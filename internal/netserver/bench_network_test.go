package netserver

// BenchmarkNetworkIngest measures what the socket boundary costs: one
// collection round (batch ingest + round close) per iteration, identical
// payloads pushed in-process, over loopback HTTP (/v1/reports batch
// bodies) and over loopback TCP (report frames + flush barrier).
// BENCH_network.json records the checked-in baseline.
//
//	go test -run xxx -bench NetworkIngest -benchmem ./internal/netserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

func BenchmarkNetworkIngest(b *testing.B) {
	for _, fam := range parityFamilies {
		for _, batch := range []int{256, 4096} {
			mkRound := func(b *testing.B) (*roundFixture, longitudinal.Protocol) {
				proto, err := fam.build()
				if err != nil {
					b.Fatal(err)
				}
				return newRoundFixture(b, proto, batch), proto
			}
			b.Run(fmt.Sprintf("%s/inproc/batch=%d", fam.name, batch), func(b *testing.B) {
				fx, proto := mkRound(b)
				stream := newTestStream(b, proto)
				fx.enrollDirect(b, stream)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := stream.IngestBatch(fx.ids, fx.payloads); err != nil {
						b.Fatal(err)
					}
					if res := stream.CloseRound(); res.Reports != batch {
						b.Fatalf("round tallied %d reports, want %d", res.Reports, batch)
					}
				}
				reportRate(b, batch)
			})
			b.Run(fmt.Sprintf("%s/http/batch=%d", fam.name, batch), func(b *testing.B) {
				fx, proto := mkRound(b)
				stream := newTestStream(b, proto)
				srv := newTestServer(b, stream, Config{})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				fx.enrollDirect(b, stream)
				body := fx.batchBody()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := http.Post(ts.URL+"/v1/reports", "application/octet-stream", bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("batch POST: status %d", resp.StatusCode)
					}
					if res := stream.CloseRound(); res.Reports != batch {
						b.Fatalf("round tallied %d reports, want %d", res.Reports, batch)
					}
				}
				reportRate(b, batch)
			})
			b.Run(fmt.Sprintf("%s/tcp/batch=%d", fam.name, batch), func(b *testing.B) {
				fx, proto := mkRound(b)
				stream := newTestStream(b, proto)
				srv := newTestServer(b, stream, Config{})
				conn := dialTCPServer(b, srv)
				fx.enrollDirect(b, stream)
				frames := fx.reportFrames()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := conn.Write(frames); err != nil {
						b.Fatal(err)
					}
					ack, err := ReadAck(conn)
					if err != nil {
						b.Fatal(err)
					}
					if ack.ReportRejected != 0 {
						b.Fatalf("ack = %+v: rejected reports", ack)
					}
					if res := stream.CloseRound(); res.Reports != batch {
						b.Fatalf("round tallied %d reports, want %d", res.Reports, batch)
					}
				}
				reportRate(b, batch)
			})
			b.Run(fmt.Sprintf("%s/http-columnar/batch=%d", fam.name, batch), func(b *testing.B) {
				fx, proto := mkRound(b)
				stream := newTestStream(b, proto)
				srv := newTestServer(b, stream, Config{})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				fx.enrollDirect(b, stream)
				body := fx.columnarBody(b, proto)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := http.Post(ts.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("columnar POST: status %d", resp.StatusCode)
					}
					if res := stream.CloseRound(); res.Reports != batch {
						b.Fatalf("round tallied %d reports, want %d", res.Reports, batch)
					}
				}
				reportRate(b, batch)
			})
			b.Run(fmt.Sprintf("%s/tcp-columnar/batch=%d", fam.name, batch), func(b *testing.B) {
				fx, proto := mkRound(b)
				stream := newTestStream(b, proto)
				srv := newTestServer(b, stream, Config{})
				conn := dialTCPServer(b, srv)
				fx.enrollDirect(b, stream)
				frames := AppendFlushFrame(AppendColumnarFrame(nil, fx.columnarBody(b, proto)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := conn.Write(frames); err != nil {
						b.Fatal(err)
					}
					ack, err := ReadAck(conn)
					if err != nil {
						b.Fatal(err)
					}
					if ack.ReportRejected != 0 {
						b.Fatalf("ack = %+v: rejected reports", ack)
					}
					if res := stream.CloseRound(); res.Reports != batch {
						b.Fatalf("round tallied %d reports, want %d", res.Reports, batch)
					}
				}
				reportRate(b, batch)
			})
		}
	}
}

// roundFixture is one pre-generated round: n enrolled users, one payload
// each. Rounds close between iterations, so the same payload bytes
// re-tally every iteration — the steady-state shape of a collection round
// without per-iteration client work on the clock.
type roundFixture struct {
	ids      []int
	regs     []longitudinal.Registration
	payloads [][]byte
}

func newRoundFixture(b *testing.B, proto longitudinal.Protocol, n int) *roundFixture {
	b.Helper()
	fx := &roundFixture{
		ids:      make([]int, n),
		regs:     make([]longitudinal.Registration, n),
		payloads: make([][]byte, n),
	}
	for u := 0; u < n; u++ {
		cl := proto.NewClient(uint64(u))
		fx.ids[u] = u
		fx.regs[u] = cl.WireRegistration()
		fx.payloads[u] = cl.AppendReport(nil, u%proto.K())
	}
	return fx
}

func (fx *roundFixture) enrollDirect(b *testing.B, stream interface {
	Enroll(int, longitudinal.Registration) error
}) {
	b.Helper()
	for i, id := range fx.ids {
		if err := stream.Enroll(id, fx.regs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func (fx *roundFixture) batchBody() []byte {
	var body []byte
	for i, id := range fx.ids {
		body = AppendBatchRecord(body, id, fx.payloads[i])
	}
	return body
}

// columnarBody encodes the round as one columnar batch (steady-state
// form: no registration columns; enrollment happened via enrollDirect).
func (fx *roundFixture) columnarBody(b *testing.B, proto longitudinal.Protocol) []byte {
	b.Helper()
	stride := proto.WireTallier().PayloadStride()
	w, err := longitudinal.NewColumnarWriter(proto.Spec().Hash(), stride)
	if err != nil {
		b.Fatal(err)
	}
	for i, id := range fx.ids {
		if err := w.Add(id, fx.payloads[i]); err != nil {
			b.Fatal(err)
		}
	}
	return w.AppendTo(nil)
}

func (fx *roundFixture) reportFrames() []byte {
	var frames []byte
	for i, id := range fx.ids {
		frames = AppendReportFrame(frames, id, fx.payloads[i])
	}
	return AppendFlushFrame(frames)
}

func reportRate(b *testing.B, batch int) {
	b.Helper()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}
