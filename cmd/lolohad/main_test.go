package main

// Daemon lifecycle tests: a real daemon in-process — bound sockets,
// injectable signal channel — killed mid-round and restarted from its
// snapshot must finish the round bit-identical to a daemon that was
// never interrupted.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

const testSpec = `{"family":"BiLOLOHA","k":32,"eps_inf":2,"eps1":1}`

func testOptions(dir string) daemonOptions {
	return daemonOptions{
		spec:     testSpec,
		mode:     "single",
		httpAddr: "127.0.0.1:0",
		tcpAddr:  "127.0.0.1:0",
		snapDir:  dir,
		drain:    10 * time.Second,
	}
}

// startDaemon runs a daemon like main does, returning it and its exit
// channel. The caller shuts it down by sending on d.sig.
func startDaemon(t *testing.T, opts daemonOptions) (*daemon, chan error) {
	t.Helper()
	d, err := newDaemon(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.run() }()
	return d, done
}

func stopDaemon(t *testing.T, d *daemon, done chan error) {
	t.Helper()
	d.sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// testClients builds n deterministic clients and enrolls them in the
// reference stream.
func testClients(t *testing.T, proto longitudinal.Protocol, ref *server.Stream, n int) []longitudinal.Client {
	t.Helper()
	clients := make([]longitudinal.Client, n)
	for u := range clients {
		clients[u] = proto.NewClient(randsrc.Derive(77, uint64(u)))
		if err := ref.Enroll(u, clients[u].WireRegistration()); err != nil {
			t.Fatal(err)
		}
	}
	return clients
}

// roundPayloads generates each client's report for the round ONCE —
// report chains are memoized per client, so the identical bytes must
// feed both the daemon and the reference stream.
func roundPayloads(clients []longitudinal.Client, round, k int) [][]byte {
	payloads := make([][]byte, len(clients))
	for u, cl := range clients {
		payloads[u] = cl.AppendReport(nil, (u*3+round)%k)
	}
	return payloads
}

// enrollTCP enrolls all clients over the daemon's raw-frame TCP front.
func enrollTCP(t *testing.T, conn net.Conn, clients []longitudinal.Client) {
	t.Helper()
	var frames []byte
	var err error
	for u := range clients {
		if frames, err = netserver.AppendEnrollFrame(frames, u, clients[u].WireRegistration()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(netserver.AppendFlushFrame(frames)); err != nil {
		t.Fatal(err)
	}
	ack, err := netserver.ReadAck(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.EnrollRejected != 0 {
		t.Fatalf("enroll ack = %+v", ack)
	}
}

// reportTCP ships payloads[lo:hi] over the connection and syncs with a
// flush.
func reportTCP(t *testing.T, conn net.Conn, payloads [][]byte, lo, hi int) {
	t.Helper()
	var frames []byte
	for u := lo; u < hi; u++ {
		frames = netserver.AppendReportFrame(frames, u, payloads[u])
	}
	if _, err := conn.Write(netserver.AppendFlushFrame(frames)); err != nil {
		t.Fatal(err)
	}
	ack, err := netserver.ReadAck(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ReportRejected != 0 {
		t.Fatalf("report ack = %+v", ack)
	}
}

// ingestRef feeds payloads[lo:hi] into the reference stream.
func ingestRef(t *testing.T, ref *server.Stream, payloads [][]byte, lo, hi int) {
	t.Helper()
	for u := lo; u < hi; u++ {
		if err := ref.Ingest(u, payloads[u]); err != nil {
			t.Fatal(err)
		}
	}
}

func dialDaemon(t *testing.T, d *daemon) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", d.tcpLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func sameFloats(a, b []float64) bool {
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

func TestLifecycleKillMidRoundRestore(t *testing.T) {
	const n = 48
	dir := t.TempDir()
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := server.NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	clients := testClients(t, proto, ref, n)

	d1, done1 := startDaemon(t, testOptions(dir))
	conn := dialDaemon(t, d1)
	enrollTCP(t, conn, clients)
	payloads := roundPayloads(clients, 0, proto.K())
	reportTCP(t, conn, payloads, 0, n/2)
	ingestRef(t, ref, payloads, 0, n/2)
	// Kill mid-round: the second half of the round has not been reported.
	conn.Close()
	stopDaemon(t, d1, done1)
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("no snapshot after SIGTERM: %v", err)
	}

	// Restart from the snapshot and finish the round.
	d2, done2 := startDaemon(t, testOptions(dir))
	if got := d2.stream.Enrolled(); got != n {
		t.Fatalf("restored %d users, want %d", got, n)
	}
	if got := d2.stream.Pending(); got != n/2 {
		t.Fatalf("restored %d pending reports, want %d", got, n/2)
	}
	conn2 := dialDaemon(t, d2)
	reportTCP(t, conn2, payloads, n/2, n)
	ingestRef(t, ref, payloads, n/2, n)
	got, want := d2.stream.CloseRound(), ref.CloseRound()
	if got.Round != want.Round || got.Reports != want.Reports {
		t.Fatalf("restored round = %d/%d reports, want %d/%d", got.Round, got.Reports, want.Round, want.Reports)
	}
	if !sameFloats(got.Raw, want.Raw) || !sameFloats(got.Estimates, want.Estimates) {
		t.Fatal("restored round's estimates diverge from the uninterrupted run")
	}
	// A duplicate of an already-tallied report must still be rejected
	// after restore (the reported bitset survived the crash) — exercised
	// on the next round via its payloads below.
	payloads1 := roundPayloads(clients, 1, proto.K())
	reportTCP(t, conn2, payloads1, 0, n)
	if p := d2.stream.Pending(); p != n {
		t.Fatalf("round 1 pending = %d, want %d", p, n)
	}
	conn2.Close() // let Drain finish without waiting out its deadline
	stopDaemon(t, d2, done2)
}

func TestLifecycleRestoreWrongSpec(t *testing.T) {
	dir := t.TempDir()
	d1, done1 := startDaemon(t, testOptions(dir))
	stopDaemon(t, d1, done1)

	opts := testOptions(dir)
	opts.spec = `{"family":"dBitFlipPM","k":32,"b":8,"d":3,"eps_inf":2}`
	if _, err := newDaemon(opts, io.Discard); !errors.Is(err, server.ErrSnapshotMismatch) {
		t.Fatalf("restore under a different spec: err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestLifecycleReshardedRestore restores a 1-shard daemon's snapshot into
// a 4-shard daemon: users re-partition deterministically (shard-of is a
// pure hash of the user ID) and the round closes identically.
func TestLifecycleReshardedRestore(t *testing.T) {
	const n = 32
	dir := t.TempDir()
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := server.NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	clients := testClients(t, proto, ref, n)

	opts := testOptions(dir)
	opts.shards = 1
	d1, done1 := startDaemon(t, opts)
	conn := dialDaemon(t, d1)
	enrollTCP(t, conn, clients)
	payloads := roundPayloads(clients, 0, proto.K())
	reportTCP(t, conn, payloads, 0, n)
	ingestRef(t, ref, payloads, 0, n)
	conn.Close()
	stopDaemon(t, d1, done1)

	opts.shards = 4
	d2, done2 := startDaemon(t, opts)
	if got := d2.stream.Shards(); got != 4 {
		t.Fatalf("restored stream has %d shards, want 4", got)
	}
	got, want := d2.stream.CloseRound(), ref.CloseRound()
	if got.Reports != want.Reports || !sameFloats(got.Estimates, want.Estimates) {
		t.Fatal("re-sharded restore diverges from the uninterrupted run")
	}
	// The re-partitioned stream keeps working across rounds.
	conn2 := dialDaemon(t, d2)
	reportTCP(t, conn2, roundPayloads(clients, 1, proto.K()), 0, n)
	if p := d2.stream.Pending(); p != n {
		t.Fatalf("round 1 pending = %d, want %d", p, n)
	}
	conn2.Close() // let Drain finish without waiting out its deadline
	stopDaemon(t, d2, done2)
}

func TestLifecyclePeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.snapEvery = 20 * time.Millisecond
	d, done := startDaemon(t, opts)
	path := filepath.Join(dir, snapshotFile)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopDaemon(t, d, done)
}

func TestOptionsValidate(t *testing.T) {
	for name, mutate := range map[string]func(*daemonOptions){
		"missing-spec":           func(o *daemonOptions) { o.spec = "" },
		"bad-mode":               func(o *daemonOptions) { o.mode = "follower" },
		"leaf-without-parent":    func(o *daemonOptions) { o.mode = "leaf" },
		"parent-in-single-mode":  func(o *daemonOptions) { o.parent = "localhost:9" },
		"parent-without-leaf-id": func(o *daemonOptions) { o.mode = "leaf"; o.parent = "localhost:9" },
		"deadline-on-leaf": func(o *daemonOptions) {
			o.mode = "leaf"
			o.parent = "localhost:9"
			o.leafID = "leaf-a"
			o.roundDeadline = time.Second
		},
		"snap-every-without-dir": func(o *daemonOptions) { o.snapDir = ""; o.snapEvery = time.Second },
	} {
		t.Run(name, func(t *testing.T) {
			o := testOptions(t.TempDir())
			mutate(&o)
			if err := o.validate(); err == nil {
				t.Fatal("validate accepted a bad configuration")
			}
		})
	}
}

// TestLifecycleCollectorTree wires a root and two leaf daemons exactly as
// the CLI flags would and checks the root's merged round against a
// single-node reference.
func TestLifecycleCollectorTree(t *testing.T) {
	const n = 40
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := server.NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	clients := testClients(t, proto, ref, n)

	rootOpts := testOptions("")
	rootOpts.snapDir = ""
	rootOpts.mode = "root"
	root, rootDone := startDaemon(t, rootOpts)

	leaves := make([]*daemon, 2)
	leafDone := make([]chan error, 2)
	for i := range leaves {
		opts := testOptions("")
		opts.snapDir = ""
		opts.mode = "leaf"
		opts.parent = root.tcpLn.Addr().String()
		opts.leafID = fmt.Sprintf("leaf-%d", i)
		leaves[i], leafDone[i] = startDaemon(t, opts)
	}

	// Partition users across the leaves, ship one round, close leaves
	// (which ship upstream), then close the root.
	conns := []net.Conn{dialDaemon(t, leaves[0]), dialDaemon(t, leaves[1])}
	for i, conn := range conns {
		var frames []byte
		for u := i; u < n; u += 2 {
			if frames, err = netserver.AppendEnrollFrame(frames, u, clients[u].WireRegistration()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(netserver.AppendFlushFrame(frames)); err != nil {
			t.Fatal(err)
		}
		if _, err := netserver.ReadAck(conn); err != nil {
			t.Fatal(err)
		}
	}
	payloads := roundPayloads(clients, 0, proto.K())
	ingestRef(t, ref, payloads, 0, n)
	for i, conn := range conns {
		var frames []byte
		for u := i; u < n; u += 2 {
			frames = netserver.AppendReportFrame(frames, u, payloads[u])
		}
		if _, err := conn.Write(netserver.AppendFlushFrame(frames)); err != nil {
			t.Fatal(err)
		}
		ack, err := netserver.ReadAck(conn)
		if err != nil {
			t.Fatal(err)
		}
		if ack.ReportRejected != 0 {
			t.Fatalf("leaf %d ack = %+v", i, ack)
		}
	}
	for i, leaf := range leaves {
		// The HTTP round-close endpoint routes through the daemon's role
		// (leaf: export + ship); drive it the way an operator would.
		resp, err := leafHTTPClose(leaf)
		if err != nil {
			t.Fatalf("leaf %d close: %v", i, err)
		}
		if resp != n/2 {
			t.Fatalf("leaf %d closed round with %d reports, want %d", i, resp, n/2)
		}
	}
	got, want := root.stream.CloseRound(), ref.CloseRound()
	if got.Reports != want.Reports || !sameFloats(got.Raw, want.Raw) || !sameFloats(got.Estimates, want.Estimates) {
		t.Fatal("collector-tree root diverges from single-node reference")
	}

	for _, conn := range conns {
		conn.Close() // let each leaf's Drain finish without waiting out its deadline
	}
	for i := range leaves {
		stopDaemon(t, leaves[i], leafDone[i])
	}
	stopDaemon(t, root, rootDone)
}

// TestLifecycleLeafOutboxReplay is the kill-mid-ship path through the
// real daemon wiring: a leaf whose parent dies before the round ships
// spools the envelope under -snapshot-dir, reports it in /v1/status,
// survives its own shutdown, and a restarted leaf replays it to the
// restarted parent — the root ends with every report exactly once.
func TestLifecycleLeafOutboxReplay(t *testing.T) {
	const n = 24
	proto, err := buildProtocol(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := server.NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	clients := testClients(t, proto, ref, n)

	rootOpts := testOptions("")
	rootOpts.snapDir = ""
	rootOpts.mode = "root"
	// The leaf's idle merge connection would otherwise hold the root's
	// drain open until its deadline.
	rootOpts.drain = 500 * time.Millisecond
	root1, root1Done := startDaemon(t, rootOpts)
	rootTCP := root1.tcpLn.Addr().String()

	leafDir := t.TempDir()
	leafOpts := testOptions(leafDir)
	leafOpts.mode = "leaf"
	leafOpts.parent = rootTCP
	leafOpts.leafID = "leaf-a"
	leafOpts.drain = 500 * time.Millisecond // don't wait out a dead parent at shutdown
	leaf1, leaf1Done := startDaemon(t, leafOpts)

	conn := dialDaemon(t, leaf1)
	enrollTCP(t, conn, clients)
	payloads := roundPayloads(clients, 0, proto.K())
	reportTCP(t, conn, payloads, 0, n)
	ingestRef(t, ref, payloads, 0, n)
	conn.Close()

	// The parent dies before the round ships; the leaf's round close must
	// still publish locally, with the envelope spooled for later.
	stopDaemon(t, root1, root1Done)
	if _, err := leafHTTPClose(leaf1); err == nil {
		t.Fatal("leaf round close shipped through a dead parent")
	}
	var st struct {
		Merge struct {
			Unshipped int `json:"unshipped"`
			Oldest    int `json:"oldest_unshipped_round"`
		} `json:"merge"`
	}
	if err := getJSON("http://"+leaf1.httpLn.Addr().String()+"/v1/status", &st); err != nil {
		t.Fatal(err)
	}
	if st.Merge.Unshipped != 1 || st.Merge.Oldest != 0 {
		t.Fatalf("leaf status = %+v, want round 0 spooled", st.Merge)
	}
	stopDaemon(t, leaf1, leaf1Done)

	// Both sides restart — the root first (same address), then the leaf,
	// whose boot replay must deliver the spooled round unprompted.
	rootOpts.tcpAddr = rootTCP
	root2, root2Done := startDaemon(t, rootOpts)
	leaf2, leaf2Done := startDaemon(t, leafOpts)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := getJSON("http://"+leaf2.httpLn.Addr().String()+"/v1/status", &st); err != nil {
			t.Fatal(err)
		}
		if st.Merge.Unshipped == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted leaf never replayed the spooled envelope: %+v", st.Merge)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, want := root2.stream.CloseRound(), ref.CloseRound()
	if got.Reports != want.Reports || !sameFloats(got.Raw, want.Raw) {
		t.Fatalf("replayed root round = %d reports, want %d bit-identical to the reference",
			got.Reports, want.Reports)
	}
	stopDaemon(t, leaf2, leaf2Done)
	stopDaemon(t, root2, root2Done)
}

// getJSON fetches and decodes url into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// leafHTTPClose closes a leaf's round over its HTTP API and returns the
// published report count.
func leafHTTPClose(d *daemon) (int, error) {
	resp, err := http.Post("http://"+d.httpLn.Addr().String()+"/v1/round/close", "application/json", http.NoBody)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var round struct {
		Reports   int    `json:"reports"`
		ShipError string `json:"ship_error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&round); err != nil {
		return 0, err
	}
	if round.ShipError != "" {
		return 0, errors.New(round.ShipError)
	}
	return round.Reports, nil
}
