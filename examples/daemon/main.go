// Daemon: the networked deployment shape — a lolohad-style collection
// server on one side of a socket, remote reporting clients on the other,
// and a live round stream for whoever is watching.
//
// Everything here talks to the daemon the way real deployments would:
// clients enroll and report over the wire (HTTP batch bodies and raw TCP
// frames — both land on the same stream), rounds close through the API,
// and an SSE subscriber tails the round feed like the dashboard does. The
// only in-process access is constructing the engine itself; point the
// same client code at a running `lolohad` binary and nothing changes.
//
//	go run ./examples/daemon
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/server"
)

const (
	k      = 64  // error-code domain
	users  = 400 // half report over HTTP, half over TCP
	rounds = 4
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Server side: a BiLOLOHA stream behind the daemon engine, listening
	// on loopback HTTP (API + SSE) and raw-frame TCP.
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		return err
	}
	stream, err := server.NewStream(proto, server.WithShards(4))
	if err != nil {
		return err
	}
	defer stream.Close()
	srv, err := netserver.New(netserver.Config{Stream: stream})
	if err != nil {
		return err
	}
	defer srv.Close()

	ts := httptest.NewServer(srv.Handler()) // stands in for lolohad's -http listener
	defer ts.Close()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.ServeTCP(tl)
	fmt.Printf("daemon: %s on %s (HTTP) and %s (TCP)\n", proto.Name(), ts.URL, tl.Addr())

	// A watcher tails the SSE round feed; wait until the daemon reports
	// the subscriber so no round is published before it is listening.
	events := make(chan string, rounds)
	go tailRounds(ts.URL+"/v1/stream", events)
	if err := waitForSubscriber(ts.URL); err != nil {
		return err
	}

	// Client side: enroll everyone over their transport, then report a
	// shifting distribution — value 7 dominates early, value 21 takes
	// over halfway through — and watch the estimates follow.
	clients := make([]longitudinal.Client, users)
	conn, err := net.Dial("tcp", tl.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	var frames []byte
	for u := range clients {
		clients[u] = proto.NewClient(uint64(u))
		reg := clients[u].WireRegistration()
		if u < users/2 {
			if err := enrollJSON(ts.URL, u, reg); err != nil {
				return err
			}
		} else if frames, err = netserver.AppendEnrollFrame(frames, u, reg); err != nil {
			return err
		}
	}
	if _, err := conn.Write(netserver.AppendFlushFrame(frames)); err != nil {
		return err
	}
	ack, err := netserver.ReadAck(conn)
	if err != nil {
		return err
	}
	fmt.Printf("enrolled: %d over HTTP JSON, %d over TCP frames (%d rejected)\n",
		users/2, ack.Enrolled, ack.EnrollRejected)

	for round := 0; round < rounds; round++ {
		popular := 7
		if round >= rounds/2 {
			popular = 21
		}
		var body, frames []byte
		for u, cl := range clients {
			v := u % k
			if u%3 != 0 {
				v = popular
			}
			payload := cl.AppendReport(nil, v)
			if u < users/2 {
				body = netserver.AppendBatchRecord(body, u, payload)
			} else {
				frames = netserver.AppendReportFrame(frames, u, payload)
			}
		}
		resp, err := http.Post(ts.URL+"/v1/reports", "application/octet-stream", bytesReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if _, err := conn.Write(netserver.AppendFlushFrame(frames)); err != nil {
			return err
		}
		if _, err := netserver.ReadAck(conn); err != nil {
			return err
		}
		// Both transports have synced; close the round through the API and
		// let the SSE feed announce the result.
		resp, err = http.Post(ts.URL+"/v1/round/close", "application/json", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		fmt.Printf("round %d (popular value %d): %s\n", round, popular, <-events)
	}
	// Shut the engine down first so the SSE stream ends and the HTTP
	// server can drain its connections (Close is idempotent; the defers
	// re-run it harmlessly).
	srv.Close()
	return nil
}

func enrollJSON(base string, userID int, reg longitudinal.Registration) error {
	body := fmt.Sprintf(`{"user_id":%d,"hash_seed":%d}`, userID, reg.HashSeed)
	resp, err := http.Post(base+"/v1/enroll", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("enroll user %d: status %d", userID, resp.StatusCode)
	}
	return nil
}

func bytesReader(b []byte) *strings.Reader { return strings.NewReader(string(b)) }

// waitForSubscriber polls /v1/status until the SSE hub reports a client.
func waitForSubscriber(base string) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			return err
		}
		var st struct {
			SSE struct {
				Clients int `json:"clients"`
			} `json:"sse"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.SSE.Clients > 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("SSE subscriber never registered")
}

// tailRounds subscribes to the SSE round feed and emits one summary line
// per published round.
func tailRounds(url string, out chan<- string) {
	resp, err := http.Get(url)
	if err != nil {
		out <- "SSE error: " + err.Error()
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var round struct {
			Round     int       `json:"round"`
			Reports   int       `json:"reports"`
			Estimates []float64 `json:"estimates"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &round); err != nil {
			out <- "SSE error: " + err.Error()
			return
		}
		top, topEst := 0, 0.0
		for v, e := range round.Estimates {
			if e > topEst {
				top, topEst = v, e
			}
		}
		out <- fmt.Sprintf("SSE says %d reports, top estimated value %d at %.1f", round.Reports, top, topEst)
	}
}
