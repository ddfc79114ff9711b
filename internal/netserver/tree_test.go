package netserver

// Collector-tree and drain tests: leaves shipping merged tallies to a
// root must leave the root's rounds bit-identical to one daemon seeing
// every report, over both merge transports (TCP frame 0x05 and POST
// /v1/merge); merge ingestion must be off unless configured; and Drain
// must apply a batch that is in flight when shutdown begins.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

// serveTCPAddr attaches a raw-TCP front to srv and returns its address.
func serveTCPAddr(t testing.TB, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	return l.Addr().String()
}

// treeClients enrolls n users in ref and, partitioned by u%leaves, in the
// leaf streams, and returns the clients.
func treeClients(t *testing.T, proto longitudinal.Protocol, ref *server.Stream,
	leaves []*server.Stream, n int) []longitudinal.Client {
	t.Helper()
	clients := make([]longitudinal.Client, n)
	for u := 0; u < n; u++ {
		cl := proto.NewClient(randsrc.Derive(41, uint64(u)))
		clients[u] = cl
		if err := ref.Enroll(u, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
		if err := leaves[u%len(leaves)].Enroll(u, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
	}
	return clients
}

func TestCollectorTreeParityTCP(t *testing.T) {
	const n, rounds = 96, 3
	for _, family := range parityFamilies {
		for _, nleaves := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/leaves=%d", family.name, nleaves), func(t *testing.T) {
				proto, err := family.build()
				if err != nil {
					t.Fatal(err)
				}
				ref := newTestStream(t, proto)
				rootStream := newTestStream(t, proto)
				rootSrv := newTestServer(t, rootStream, Config{AcceptMerges: true})
				rootAddr := serveTCPAddr(t, rootSrv)

				leafStreams := make([]*server.Stream, nleaves)
				leafSrvs := make([]*Server, nleaves)
				for i := range leafStreams {
					leafStreams[i] = newTestStream(t, proto)
					up, err := DialMerge(rootAddr, 5*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { up.Close() })
					leafSrvs[i] = newTestServer(t, leafStreams[i], Config{
						Upstream: up,
						LeafID:   fmt.Sprintf("leaf-%d", i),
					})
				}
				clients := treeClients(t, proto, ref, leafStreams, n)

				for round := 0; round < rounds; round++ {
					for u, cl := range clients {
						payload := cl.AppendReport(nil, (u*5+round)%proto.K())
						if err := ref.Ingest(u, payload); err != nil {
							t.Fatal(err)
						}
						if err := leafStreams[u%nleaves].Ingest(u, payload); err != nil {
							t.Fatal(err)
						}
					}
					refRes := ref.CloseRound()

					// Each leaf's closeRound spools and ships its round
					// envelope; the per-envelope ack confirms delivery, so by
					// the time it returns the root has applied the tallies.
					partReports := 0
					for i, srv := range leafSrvs {
						res, err := srv.closeRound()
						if err != nil {
							t.Fatalf("leaf %d round %d: %v", i, round, err)
						}
						partReports += res.Reports
					}
					if partReports != n {
						t.Fatalf("round %d: leaves published %d local reports, want %d", round, partReports, n)
					}
					rootRes := rootStream.CloseRound()
					if rootRes.Reports != refRes.Reports || rootRes.Round != refRes.Round {
						t.Fatalf("round %d: root %d reports (round %d), ref %d (round %d)",
							round, rootRes.Reports, rootRes.Round, refRes.Reports, refRes.Round)
					}
					if !sameFloats(rootRes.Raw, refRes.Raw) || !sameFloats(rootRes.Estimates, refRes.Estimates) {
						t.Fatalf("round %d: root estimates diverge from single-node reference", round)
					}
				}
				if got := rootSrv.mergeFrames.Load(); got != uint64(nleaves*rounds) {
					t.Fatalf("root applied %d merge frames, want %d", got, nleaves*rounds)
				}
				for i, srv := range leafSrvs {
					if got := srv.shipped.Load(); got != rounds {
						t.Fatalf("leaf %d shipped %d rounds, want %d", i, got, rounds)
					}
				}
			})
		}
	}
}

func TestCollectorTreeParityHTTP(t *testing.T) {
	const n, rounds, nleaves = 64, 2, 2
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	ref := newTestStream(t, proto)
	rootStream := newTestStream(t, proto)
	rootSrv := newTestServer(t, rootStream, Config{AcceptMerges: true})
	ts := httptest.NewServer(rootSrv.Handler())
	defer ts.Close()

	leafStreams := make([]*server.Stream, nleaves)
	for i := range leafStreams {
		leafStreams[i] = newTestStream(t, proto)
	}
	clients := treeClients(t, proto, ref, leafStreams, n)

	for round := 0; round < rounds; round++ {
		for u, cl := range clients {
			payload := cl.AppendReport(nil, (u*3+round)%proto.K())
			if err := ref.Ingest(u, payload); err != nil {
				t.Fatal(err)
			}
			if err := leafStreams[u%nleaves].Ingest(u, payload); err != nil {
				t.Fatal(err)
			}
		}
		refRes := ref.CloseRound()
		merged := 0
		for _, leaf := range leafStreams {
			_, snap, err := leaf.CloseRoundExport()
			if err != nil {
				t.Fatal(err)
			}
			enc, err := persist.Append(nil, snap)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/merge", "application/octet-stream", bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Merged int `json:"merged"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d merge POST: status %d", round, resp.StatusCode)
			}
			merged += got.Merged
		}
		if merged != n {
			t.Fatalf("round %d: root confirmed %d merged reports, want %d", round, merged, n)
		}
		rootRes := rootStream.CloseRound()
		if rootRes.Reports != refRes.Reports ||
			!sameFloats(rootRes.Raw, refRes.Raw) || !sameFloats(rootRes.Estimates, refRes.Estimates) {
			t.Fatalf("round %d: root round diverges from single-node reference", round)
		}
	}
}

// TestMergeRejections pins the gate: merges are off by default (TCP frame
// drops the connection, HTTP route does not exist), and a root rejects a
// snapshot built for another protocol without applying anything.
func TestMergeRejections(t *testing.T) {
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	other, err := parityFamilies[1].build()
	if err != nil {
		t.Fatal(err)
	}
	otherLeaf := newTestStream(t, other)
	cl := other.NewClient(1)
	if err := otherLeaf.Enroll(1, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	if err := otherLeaf.Ingest(1, cl.AppendReport(nil, 0)); err != nil {
		t.Fatal(err)
	}
	_, mismatched, err := otherLeaf.CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	encMismatched, err := persist.Append(nil, mismatched)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("disabled-by-default", func(t *testing.T) {
		srv := newTestServer(t, newTestStream(t, proto), Config{})
		conn := dialTCPServer(t, srv)
		if _, err := conn.Write(AppendMergeFrame(nil, encMismatched)); err != nil {
			t.Fatal(err)
		}
		conn.Write(AppendFlushFrame(nil))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := ReadAck(conn); err == nil {
			t.Fatal("merge frame at a non-root answered with an ack, want dropped connection")
		}

		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/merge", "application/octet-stream", bytes.NewReader(encMismatched))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/v1/merge at a non-root: status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("mismatched-spec", func(t *testing.T) {
		rootStream := newTestStream(t, proto)
		srv := newTestServer(t, rootStream, Config{AcceptMerges: true})
		addr := serveTCPAddr(t, srv)
		up, err := DialMerge(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer up.Close()
		badEnv, err := persist.AppendEnvelope(nil, &persist.Envelope{
			Leaf: "rogue", Round: 0, Seq: 1, Snap: mismatched,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := up.Ship(badEnv); err == nil {
			t.Fatal("Ship of a mismatched snapshot succeeded, want dropped connection")
		}

		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for name, body := range map[string][]byte{
			"mismatched": encMismatched,
			"garbage":    []byte("not a snapshot"),
		} {
			resp, err := http.Post(ts.URL+"/v1/merge", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s merge: status %d, want 400", name, resp.StatusCode)
			}
		}
		if srv.mergeBad.Load() < 3 {
			t.Fatalf("rejected-merge counter = %d, want at least 3", srv.mergeBad.Load())
		}
		if srv.mergeReports.Load() != 0 || rootStream.Pending() != 0 {
			t.Fatal("rejected merges must not tally anything")
		}
	})
}

// TestDrainInFlightBatch starts a drain while a TCP connection is live,
// then ships a batch over it: the connection's buffered frames must be
// consumed and acked before the drain completes, and a snapshot taken
// after the drain (the daemon's shutdown sequence) must carry them.
func TestDrainInFlightBatch(t *testing.T) {
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	srv := newTestServer(t, stream, Config{})
	addr := serveTCPAddr(t, srv)

	// HTTP front on a real listener so Drain's http.Server.Shutdown path
	// runs too.
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.ServeHTTP(hl) }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := proto.NewClient(9)
	frames, err := AppendEnrollFrame(nil, 9, cl.WireRegistration())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	if ack := flushAndAck(t, conn); ack.Enrolled != 1 {
		t.Fatalf("enroll ack = %+v", ack)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(10 * time.Second) }()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}
	// New connections must be refused once draining.
	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := nc.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("dial during drain: got live connection, want refused or closed")
		}
		nc.Close()
	}

	// The in-flight batch: written while the drain is waiting. The read
	// deadline Drain set must not cut it off — the loop consumes and acks
	// buffered frames until the client hangs up.
	batch := AppendReportFrame(nil, 9, cl.AppendReport(nil, 3))
	batch = AppendFlushFrame(batch)
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	ack := flushAndAck(t, conn)
	if ack.Reports != 1 || ack.ReportRejected != 0 {
		t.Fatalf("in-flight batch ack = %+v, want 1 report", ack)
	}
	conn.Close()

	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-httpDone; err != nil {
		t.Fatalf("ServeHTTP after drain: %v", err)
	}

	// Shutdown sequence: the post-drain snapshot carries the batch.
	if got := stream.Pending(); got != 1 {
		t.Fatalf("pending after drain = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := stream.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports() != 1 {
		t.Fatalf("post-drain snapshot carries %d reports, want 1", snap.Reports())
	}
}
