// Collectortree: the multi-node deployment shape — two leaf collection
// daemons near the clients, one root holding the round, and a merge link
// in between.
//
// Every aggregator in this repository keeps its round state as an integer
// tally vector, and tally adds commute. That is the whole trick: a leaf
// closing its round exports the vector (the LSS1 snapshot wire form),
// wraps it in a merge envelope — leaf identity plus a durable sequence
// number — and ships it to the root, which deduplicates per leaf before
// adding it in. The tree topology never touches the estimates — the
// root's round is bit-identical to a single daemon that collected every
// report itself, which this program checks against a reference stream
// every round, and the envelope ledger makes that hold under retries too.
//
// The same wiring as `lolohad -mode root` + two `lolohad -mode leaf
// -parent host:port` processes fed by partitioned `lolohasim loadgen`
// runs (see the CI collector-tree smoke); here the three daemons live in
// one process so the example is self-contained.
//
//	go run ./examples/collectortree
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/server"
)

const (
	k      = 32  // value domain
	users  = 300 // split into two contiguous partitions, one per leaf
	rounds = 3
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// node is one daemon: a stream behind the netserver engine with both
// listeners up, like a lolohad process.
type node struct {
	stream *server.Stream
	srv    *netserver.Server
	http   *httptest.Server
	tcpLn  net.Listener
}

func startNode(proto longitudinal.Protocol, cfg netserver.Config) (*node, error) {
	stream, err := server.NewStream(proto)
	if err != nil {
		return nil, err
	}
	cfg.Stream = stream
	srv, err := netserver.New(cfg)
	if err != nil {
		stream.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		stream.Close()
		return nil, err
	}
	go srv.ServeTCP(ln)
	return &node{stream: stream, srv: srv, http: httptest.NewServer(srv.Handler()), tcpLn: ln}, nil
}

func (n *node) close() {
	n.http.Close()
	n.srv.Close()
	n.tcpLn.Close()
	n.stream.Close()
}

func run() error {
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		return err
	}

	// The tree: a root that accepts merge frames on its TCP listener, and
	// two leaves whose round close ships upstream instead of publishing a
	// partial result.
	root, err := startNode(proto, netserver.Config{AcceptMerges: true})
	if err != nil {
		return err
	}
	defer root.close()
	leaves := make([]*node, 2)
	for i := range leaves {
		up, err := netserver.DialMerge(root.tcpLn.Addr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		cfg := netserver.Config{Upstream: up, LeafID: fmt.Sprintf("leaf-%d", i)}
		if leaves[i], err = startNode(proto, cfg); err != nil {
			up.Close()
			return err
		}
		defer leaves[i].close()
	}
	fmt.Printf("root %s on %s; leaves ship merges to it from %s and %s\n",
		proto.Name(), root.tcpLn.Addr(), leaves[0].http.URL, leaves[1].http.URL)

	// The single-daemon baseline the tree must match, plus one TCP client
	// connection per leaf. Users split into contiguous halves, exactly
	// like `lolohasim loadgen -partition 0/2` / `-partition 1/2`.
	ref, err := server.NewStream(proto)
	if err != nil {
		return err
	}
	defer ref.Close()
	conns := make([]net.Conn, len(leaves))
	frames := make([][]byte, len(leaves))
	for i, leaf := range leaves {
		if conns[i], err = net.Dial("tcp", leaf.tcpLn.Addr().String()); err != nil {
			return err
		}
		defer conns[i].Close()
	}
	clients := make([]longitudinal.Client, users)
	for u := range clients {
		clients[u] = proto.NewClient(uint64(u))
		reg := clients[u].WireRegistration()
		if err := ref.Enroll(u, reg); err != nil {
			return err
		}
		leaf := leafOf(u)
		if frames[leaf], err = netserver.AppendEnrollFrame(frames[leaf], u, reg); err != nil {
			return err
		}
	}
	for i := range leaves {
		if err := flush(conns[i], &frames[i]); err != nil {
			return err
		}
	}

	for round := 0; round < rounds; round++ {
		// One payload per user per round, fed to both the reference stream
		// and the user's leaf: report chains are stateful, so parity means
		// the same bytes on both paths, not two independent draws.
		for u, cl := range clients {
			payload := cl.AppendReport(nil, (u*5+round)%k)
			if err := ref.Ingest(u, payload); err != nil {
				return err
			}
			leaf := leafOf(u)
			frames[leaf] = netserver.AppendReportFrame(frames[leaf], u, payload)
		}
		for i := range leaves {
			if err := flush(conns[i], &frames[i]); err != nil {
				return err
			}
			// Leaf round close = export the tally vector and ship it as a
			// merge frame; no partial estimate is published at the leaf.
			if err := closeRound(leaves[i].http.URL); err != nil {
				return err
			}
		}
		if err := closeRound(root.http.URL); err != nil {
			return err
		}
		want := ref.CloseRound()
		got, err := fetchRaw(root.http.URL, round)
		if err != nil {
			return err
		}
		if err := sameFloats(got, want.Raw); err != nil {
			return fmt.Errorf("round %d: tree diverged from single-node baseline: %w", round, err)
		}
		fmt.Printf("round %d: root estimate bit-identical to the single-node run (%d values, est[7]=%.4f)\n",
			round, len(got), got[7])
	}

	// The root's merge counters account for every shipped tally, and every
	// leaf's outbox is empty: each round's envelope was acked before the
	// round close returned, so nothing waits on the background shipper.
	var st struct {
		Merge struct {
			Frames     int `json:"frames"`
			Reports    int `json:"reports"`
			Duplicates int `json:"duplicates"`
		} `json:"merge"`
	}
	if err := getJSON(root.http.URL+"/v1/status", &st); err != nil {
		return err
	}
	fmt.Printf("root merged %d frames carrying %d reports, %d duplicates (%d leaves x %d rounds, %d users/round)\n",
		st.Merge.Frames, st.Merge.Reports, st.Merge.Duplicates, len(leaves), rounds, users)
	for i, leaf := range leaves {
		var ls struct {
			Merge struct {
				Shipped   int `json:"shipped"`
				Unshipped int `json:"unshipped"`
				Oldest    int `json:"oldest_unshipped_round"`
			} `json:"merge"`
		}
		if err := getJSON(leaf.http.URL+"/v1/status", &ls); err != nil {
			return err
		}
		if ls.Merge.Unshipped != 0 || ls.Merge.Oldest != -1 {
			return fmt.Errorf("leaf %d: %d envelopes unshipped (oldest round %d), want an empty outbox",
				i, ls.Merge.Unshipped, ls.Merge.Oldest)
		}
		fmt.Printf("leaf %d shipped %d envelopes, outbox empty\n", i, ls.Merge.Shipped)
	}
	return nil
}

// leafOf partitions the user space into contiguous halves.
func leafOf(u int) int {
	if u < users/2 {
		return 0
	}
	return 1
}

// flush writes the accumulated frames plus a flush barrier and waits for
// the ack, so the leaf has applied everything before the round closes.
func flush(conn net.Conn, frames *[]byte) error {
	if _, err := conn.Write(netserver.AppendFlushFrame(*frames)); err != nil {
		return err
	}
	*frames = (*frames)[:0]
	_, err := netserver.ReadAck(conn)
	return err
}

func closeRound(base string) error {
	resp, err := http.Post(base+"/v1/round/close", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		ShipError string `json:"ship_error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	if body.ShipError != "" {
		return fmt.Errorf("round close at %s: ship failed: %s", base, body.ShipError)
	}
	return nil
}

func fetchRaw(base string, round int) ([]float64, error) {
	var body struct {
		Raw []float64 `json:"raw"`
	}
	err := getJSON(fmt.Sprintf("%s/v1/rounds/%d", base, round), &body)
	return body.Raw, err
}

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

func sameFloats(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("est[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
