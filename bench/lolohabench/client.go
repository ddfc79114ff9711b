package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
)

// sender is one data connection to an ingesting daemon. send blocks until
// the daemon has acknowledged the batch and returns how many of its
// reports the daemon accepted and rejected.
type sender interface {
	enroll(firstID int, regs []longitudinal.Registration) (rejected int, err error)
	send(batch []byte, n int) (accepted, rejected int, err error)
	close()
}

// tcpSender speaks lolohad's raw-frame protocol: enroll frames (0x01),
// columnar batch frames (0x04), and a flush frame (0x03) after each batch
// whose ack (0x80) confirms the batch was applied.
type tcpSender struct {
	conn  net.Conn
	buf   []byte
	acked netserver.Ack // connection-lifetime counters at the last ack
}

func dialTCP(addr string) (*tcpSender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpSender{conn: conn}, nil
}

func (s *tcpSender) roundTrip() (netserver.Ack, error) {
	s.buf = netserver.AppendFlushFrame(s.buf)
	if _, err := s.conn.Write(s.buf); err != nil {
		return netserver.Ack{}, err
	}
	s.buf = s.buf[:0]
	return netserver.ReadAck(s.conn)
}

func (s *tcpSender) enroll(firstID int, regs []longitudinal.Registration) (int, error) {
	s.buf = s.buf[:0]
	for i, reg := range regs {
		var err error
		if s.buf, err = netserver.AppendEnrollFrame(s.buf, firstID+i, reg); err != nil {
			return 0, err
		}
	}
	ack, err := s.roundTrip()
	if err != nil {
		return 0, err
	}
	rejected := int(ack.EnrollRejected - s.acked.EnrollRejected)
	s.acked = ack
	return rejected, nil
}

func (s *tcpSender) send(batch []byte, n int) (int, int, error) {
	s.buf = netserver.AppendColumnarFrame(s.buf[:0], batch)
	ack, err := s.roundTrip()
	if err != nil {
		return 0, 0, err
	}
	accepted := int(ack.Reports - s.acked.Reports)
	rejected := int(ack.ReportRejected - s.acked.ReportRejected)
	s.acked = ack
	return accepted, rejected, nil
}

func (s *tcpSender) close() { s.conn.Close() }

// api is an HTTP client for one daemon, limited to conns connections, so
// the benchmark's connection count is what it says it is.
type api struct {
	base string
	c    *http.Client
}

func newAPI(addr string, conns int) *api {
	// A fresh Transport has no proxy: requests go to the loopback address.
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &api{base: "http://" + addr, c: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends one request and returns the body of its 200 response.
func (a *api) do(method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: string(raw)}
	}
	return raw, nil
}

// get fetches path and decodes its JSON body into out.
func (a *api) get(path string, out any) error {
	raw, err := a.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func (a *api) close() { a.c.CloseIdleConnections() }

// statusError is a non-2xx response: a failed operation, not a broken
// connection.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// httpSender enrolls with one JSON POST per user and sends columnar
// /v1/reports bodies, over a single keep-alive connection.
type httpSender struct{ *api }

func (s httpSender) enroll(firstID int, regs []longitudinal.Registration) (int, error) {
	rejected := 0
	for i, reg := range regs {
		body, err := json.Marshal(map[string]any{"user_id": firstID + i, "hash_seed": reg.HashSeed, "sampled": reg.Sampled})
		if err != nil {
			return 0, err
		}
		if _, err := s.do("POST", "/v1/enroll", "application/json", body); err != nil {
			if _, ok := err.(*statusError); !ok {
				return 0, err
			}
			rejected++
		}
	}
	return rejected, nil
}

func (s httpSender) send(batch []byte, n int) (int, int, error) {
	raw, err := s.do("POST", "/v1/reports", netserver.ContentTypeColumnar, batch)
	if err != nil {
		if _, ok := err.(*statusError); ok {
			return 0, n, nil
		}
		return 0, 0, err
	}
	var got struct {
		Received int `json:"received"`
		Rejected int `json:"rejected"`
	}
	err = json.Unmarshal(raw, &got)
	return got.Received, got.Rejected, err
}

// published is the part of a daemon's round JSON the checks use.
type published struct {
	Round   int       `json:"round"`
	Reports int       `json:"reports"`
	Raw     []float64 `json:"raw"`
}

// closeRound closes the daemon's open round and returns the response body;
// parseClose decodes it. The two are apart so a close is timed up to the
// response, not through the client's JSON decoding.
func (a *api) closeRound() ([]byte, error) {
	return a.do("POST", "/v1/round/close", "", nil)
}

// parseClose decodes a close response. A leaf whose ship to its parent
// failed still closes locally and answers {"round": ..., "ship_error": ...};
// that is reported as shipFailed.
func parseClose(raw []byte) (res published, shipFailed bool, err error) {
	var wrapped struct {
		Round     json.RawMessage `json:"round"`
		ShipError string          `json:"ship_error"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		return res, false, err
	}
	if wrapped.ShipError != "" {
		return res, true, json.Unmarshal(wrapped.Round, &res)
	}
	return res, false, json.Unmarshal(raw, &res)
}

func (a *api) round(t int) (published, error) {
	var res published
	err := a.get(fmt.Sprintf("/v1/rounds/%d", t), &res)
	return res, err
}

// status is the part of /v1/status whose counters count failures and
// wasted work.
type status struct {
	TCP struct {
		Rejected uint64 `json:"rejected"`
	} `json:"tcp"`
	HTTP struct {
		Rejected uint64 `json:"rejected"`
	} `json:"http"`
	SSE struct {
		DroppedRounds uint64 `json:"dropped_rounds"`
	} `json:"sse"`
	Merge *struct {
		Frames     uint64 `json:"frames"` // envelopes applied
		Rejected   uint64 `json:"rejected"`
		Duplicates uint64 `json:"duplicates"`
		ShipFailed uint64 `json:"ship_failed"`
		Retries    uint64 `json:"retries"`
	} `json:"merge"`
}

func (a *api) status() (status, error) {
	var st status
	err := a.get("/v1/status", &st)
	return st, err
}
