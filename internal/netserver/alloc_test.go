package netserver

// Runtime pins for the daemon's zero-allocation acceptance criterion: the
// TCP decode→tally path (readFrame → handleReport → Stream.Ingest) and
// the HTTP batch decode (decodeBatchBody) allocate nothing per report in
// the steady state. The lolohalint noalloc analyzer checks the same
// functions statically; noalloc_meta_test.go at the repo root ties the
// two suites together.

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/server"
)

func TestTCPDecodeTallyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	proto, err := core.NewBinary(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := server.NewStream(proto, server.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	srv := newTestServer(t, stream, Config{})

	// AllocsPerRun calls the closure runs+1 times (one warm-up, which
	// absorbs the amortized frame-buffer growth); the replay buffer holds
	// exactly one frame per call, each from a distinct enrolled user so
	// every report lands (a duplicate rejection would allocate its error).
	const runs = 200
	var frames []byte
	payloads := make([][]byte, runs+1)
	for u := range payloads {
		cl := proto.NewClient(uint64(u))
		if err := stream.Enroll(u, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
		payloads[u] = cl.AppendReport(nil, u%proto.K())
		frames = AppendReportFrame(frames, u, payloads[u])
	}
	// Warm-up round: first-sight tally work (the per-user hash table) is
	// enrollment-time cost, not steady state — same discipline as the root
	// package's TestIngestSteadyStateZeroAllocs.
	for u, p := range payloads {
		if err := stream.Ingest(u, p); err != nil {
			t.Fatal(err)
		}
	}
	stream.CloseRound()
	c := &tcpConn{srv: srv, br: bufio.NewReaderSize(bytes.NewReader(frames), 64<<10)}

	allocs := testing.AllocsPerRun(runs, func() {
		typ, body, err := c.readFrame()
		if err != nil || typ != FrameReport {
			t.Fatalf("readFrame: type 0x%02x, err %v", typ, err)
		}
		c.handleReport(body)
	})
	if allocs != 0 {
		t.Fatalf("TCP decode→tally allocates %.1f times per report, want 0", allocs)
	}
	if c.reports != runs+1 || c.reportRejected != 0 {
		t.Fatalf("tallied %d reports (%d rejected), want %d", c.reports, c.reportRejected, runs+1)
	}
}

// TestTCPColumnarZeroAlloc pins the columnar acceptance criterion on the
// socket path: readFrame → handleColumnar (DecodeColumnar →
// IngestColumnar) allocates nothing per report in the steady state.
func TestTCPColumnarZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	proto, err := core.NewBinary(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := server.NewStream(proto, server.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	srv := newTestServer(t, stream, Config{})

	stride := proto.WireTallier().PayloadStride()
	// One columnar frame per measured call, each batch holding distinct
	// enrolled users so every report lands (duplicates allocate their
	// rejection error). AllocsPerRun's warm-up call grows the connection's
	// decode columns; the explicit warm-up round below absorbs first-sight
	// tally state (the per-user hash tables), which is enrollment-time
	// cost, not steady state.
	const runs, batch = 50, 64
	var frames []byte
	w, err := longitudinal.NewColumnarWriter(proto.Spec().Hash(), stride)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs+1; i++ {
		w.Reset()
		for j := 0; j < batch; j++ {
			u := i*batch + j
			cl := proto.NewClient(uint64(u))
			if err := stream.Enroll(u, cl.WireRegistration()); err != nil {
				t.Fatal(err)
			}
			p := cl.AppendReport(nil, u%proto.K())
			if err := w.Add(u, p); err != nil {
				t.Fatal(err)
			}
			if err := stream.Ingest(u, p); err != nil { // warm-up round
				t.Fatal(err)
			}
		}
		frames = AppendColumnarFrame(frames, w.AppendTo(nil))
	}
	stream.CloseRound()

	c := &tcpConn{srv: srv, br: bufio.NewReaderSize(bytes.NewReader(frames), 64<<10)}
	allocs := testing.AllocsPerRun(runs, func() {
		typ, body, err := c.readFrame()
		if err != nil || typ != FrameColumnar {
			t.Fatalf("readFrame: type 0x%02x, err %v", typ, err)
		}
		if !c.handleColumnar(body) {
			t.Fatal("handleColumnar reported a protocol error")
		}
	})
	if allocs != 0 {
		t.Fatalf("TCP columnar decode→tally allocates %.1f times per batch, want 0", allocs)
	}
	if want := uint64((runs + 1) * batch); c.reports != want || c.reportRejected != 0 {
		t.Fatalf("tallied %d reports (%d rejected), want %d", c.reports, c.reportRejected, want)
	}
}

// TestColumnarDecodeZeroAlloc pins the HTTP-side criterion: a steady
// ContentTypeColumnar body decodes into reused columns with zero
// allocations (IngestColumnar itself is pinned by TestTCPColumnarZeroAlloc
// and the noalloc analyzer).
func TestColumnarDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	proto, err := core.NewBinary(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stride := proto.WireTallier().PayloadStride()
	const n = 256
	w, err := longitudinal.NewColumnarWriter(proto.Spec().Hash(), stride)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		cl := proto.NewClient(uint64(u))
		if err := w.Add(u, cl.AppendReport(nil, u%proto.K())); err != nil {
			t.Fatal(err)
		}
	}
	body := w.AppendTo(nil)

	var b longitudinal.ColumnarBatch
	allocs := testing.AllocsPerRun(100, func() {
		if err := longitudinal.DecodeColumnar(body, &b); err != nil || b.Count() != n {
			t.Fatalf("DecodeColumnar: %d rows, err %v", b.Count(), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("columnar decode allocates %.1f times per batch, want 0", allocs)
	}
}

func TestBatchDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	proto, err := core.NewBinary(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var body []byte
	for u := 0; u < n; u++ {
		cl := proto.NewClient(uint64(u))
		body = AppendBatchRecord(body, u, cl.AppendReport(nil, u%proto.K()))
	}

	// The warm-up run grows ids/payloads to capacity; after that the
	// decode reuses them and the payload views alias body, so a steady
	// /v1/reports batch costs zero allocations before IngestBatch (itself
	// pinned allocation-free by the root package's suites).
	var (
		ids      []int
		payloads [][]byte
	)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		ids, payloads, err = decodeBatchBody(body, ids, payloads, 1<<20)
		if err != nil || len(ids) != n {
			t.Fatalf("decodeBatchBody: %d records, err %v", len(ids), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch decode allocates %.1f times per batch, want 0", allocs)
	}
}
