package netserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/loloha-ldp/loloha/internal/heavyhitter"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/server"
)

// HTTP API. All bodies are JSON except /v1/reports, whose binary batch
// format (AppendBatchRecord) exists so the hot path stays hot: JSON
// would cost a parse and an allocation per report.
//
//	POST /v1/enroll       {"user_id":7,"hash_seed":9,"sampled":[1,2]}
//	POST /v1/reports      binary batch body → {"received":N,"rejected":M}
//	POST /v1/merge        binary LME1 envelope body → {"seq":S,"merged":N,"duplicate":D} (collector roots only)
//	POST /v1/round/close  → RoundResult of the closed round
//	GET  /v1/rounds/{t}   → RoundResult of round t
//	GET  /v1/status       → daemon + stream counters and the protocol spec
//	GET  /v1/stream       → text/event-stream of RoundResults
//	GET  /                → embedded live dashboard

// enrollRequest is the JSON enrollment body; HashSeed and Sampled mirror
// longitudinal.Registration.
type enrollRequest struct {
	UserID   int    `json:"user_id"`
	HashSeed uint64 `json:"hash_seed"`
	Sampled  []int  `json:"sampled,omitempty"`
}

// roundJSON is the wire form of a RoundResult.
type roundJSON struct {
	Round        int                  `json:"round"`
	Reports      int                  `json:"reports"`
	Raw          []float64            `json:"raw"`
	Estimates    []float64            `json:"estimates"`
	HeavyHitters []heavyhitter.Hitter `json:"heavy_hitters,omitempty"`
}

func toRoundJSON(r server.RoundResult) roundJSON {
	return roundJSON{
		Round:        r.Round,
		Reports:      r.Reports,
		Raw:          r.Raw,
		Estimates:    r.Estimates,
		HeavyHitters: r.HeavyHitters,
	}
}

// statusJSON is the /v1/status body.
type statusJSON struct {
	Protocol      string                     `json:"protocol"`
	Spec          *longitudinal.ProtocolSpec `json:"spec,omitempty"`
	Enrolled      int                        `json:"enrolled"`
	Rounds        int                        `json:"rounds"`
	Pending       int                        `json:"pending"`
	Shards        int                        `json:"shards"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	TCP           ingestStatsJSON            `json:"tcp"`
	HTTP          httpStatsJSON              `json:"http"`
	SSE           sseStatsJSON               `json:"sse"`
	Merge         *mergeStatsJSON            `json:"merge,omitempty"`
}

type ingestStatsJSON struct {
	LiveConns  int64  `json:"live_conns"`
	TotalConns uint64 `json:"total_conns"`
	Reports    uint64 `json:"reports"`
	Rejected   uint64 `json:"rejected"`
}

type httpStatsJSON struct {
	Batches  uint64 `json:"batches"`
	Reports  uint64 `json:"reports"`
	Rejected uint64 `json:"rejected"`
}

type sseStatsJSON struct {
	Clients       int    `json:"clients"`
	DroppedRounds uint64 `json:"dropped_rounds"`
}

// mergeStatsJSON reports collector-tree traffic. Present only when the
// daemon participates in a tree: Frames/Reports/Rejected/Duplicates
// count inbound merges (roots), Shipped/ShipFailed/Retries/Unshipped
// count outbound envelopes (leaves). Leaves is the root's per-leaf
// applied-envelope ledger plus current-round arrival attribution —
// during a partial round it names exactly which leaves the published
// estimates cover.
type mergeStatsJSON struct {
	Frames     uint64 `json:"frames"`
	Reports    uint64 `json:"reports"`
	Rejected   uint64 `json:"rejected"`
	Duplicates uint64 `json:"duplicates"`
	Shipped    uint64 `json:"shipped,omitempty"`
	ShipFailed uint64 `json:"ship_failed,omitempty"`
	Retries    uint64 `json:"retries,omitempty"`
	// Unshipped/OldestUnshippedRound expose the leaf outbox: rounds
	// closed but not yet confirmed by the parent. -1 when empty.
	Unshipped            int `json:"unshipped"`
	OldestUnshippedRound int `json:"oldest_unshipped_round"`
	// Root graceful degradation: distinct leaves merged into the open
	// round, the configured expectation/quorum, and how many rounds the
	// deadline closed below expectation.
	Arrived       int                      `json:"arrived,omitempty"`
	ExpectLeaves  int                      `json:"expect_leaves,omitempty"`
	Quorum        int                      `json:"quorum,omitempty"`
	PartialRounds uint64                   `json:"partial_rounds,omitempty"`
	Leaves        map[string]leafStatsJSON `json:"leaves,omitempty"`
}

// leafStatsJSON is one leaf's row in the root's ledger attribution.
type leafStatsJSON struct {
	Seq     uint64 `json:"seq"`
	Round   int    `json:"round"`
	Reports uint64 `json:"reports"`
	Dups    uint64 `json:"dups"`
	// InRound reports whether the leaf has merged into the open round.
	InRound bool `json:"in_round"`
}

func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/enroll", s.handleEnroll)
	mux.HandleFunc("POST /v1/reports", s.handleReports)
	if s.acceptMerges {
		// Leaves have no merge endpoint at all: a misrouted snapshot is a
		// 404, not a silent double count.
		mux.HandleFunc("POST /v1/merge", s.handleMergeHTTP)
	}
	mux.HandleFunc("POST /v1/round/close", s.handleRoundClose)
	mux.HandleFunc("GET /v1/rounds/{t}", s.handleRound)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleEnroll(w http.ResponseWriter, r *http.Request) {
	var req enrollRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.UserID < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("netserver: negative user ID %d", req.UserID))
		return
	}
	reg := longitudinal.Registration{HashSeed: req.HashSeed, Sampled: req.Sampled}
	if err := s.stream.Enroll(req.UserID, reg); err != nil {
		// Conflicting re-enrollment (or a cohort-owned ID) is the caller's
		// bug, not the server's.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > int64(s.maxBatch) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("netserver: batch body %d bytes exceeds limit %d", r.ContentLength, s.maxBatch))
		return
	}
	bb := batchPool.Get().(*batchBuffers)
	defer putBatchBuffers(bb)
	body, err := readBody(r, bb.body, s.maxBatch)
	bb.body = body[:0]
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var n int
	var ingestErr error
	if r.Header.Get("Content-Type") == ContentTypeColumnar {
		if err := longitudinal.DecodeColumnar(body, &bb.col); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		n = bb.col.Count()
		ingestErr = s.stream.IngestColumnar(&bb.col)
		if errors.Is(ingestErr, server.ErrColumnarMismatch) {
			// The whole batch was built for another protocol configuration:
			// the client's encoder is misconfigured, a 400 like a framing
			// error, not a per-report rejection.
			writeError(w, http.StatusBadRequest, ingestErr)
			return
		}
	} else {
		ids, payloads, err := decodeBatchBody(body, bb.ids, bb.payloads, s.maxFrame)
		bb.ids, bb.payloads = ids, payloads
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		n = len(ids)
		ingestErr = s.stream.IngestBatch(ids, payloads)
	}
	rejected := countJoined(ingestErr)
	s.httpBatches.Add(1)
	s.httpReports.Add(uint64(n - rejected))
	s.httpRejected.Add(uint64(rejected))
	resp := map[string]any{"received": n - rejected, "rejected": rejected}
	if ingestErr != nil {
		resp["error"] = ingestErr.Error()
	}
	// Per-report rejections are data, not transport failure: the batch
	// landed, so the status stays 200 and the counts tell the story.
	writeJSON(w, http.StatusOK, resp)
}

// readBody reads the request body into buf (reusing capacity). With a
// declared Content-Length it reads exactly once into a right-sized
// buffer; chunked bodies fall back to append-style reading capped at max.
func readBody(r *http.Request, buf []byte, max int) ([]byte, error) {
	if n := r.ContentLength; n >= 0 {
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return nil, fmt.Errorf("netserver: short body: %w", err)
		}
		return buf, nil
	}
	buf = buf[:0]
	lr := io.LimitReader(r.Body, int64(max)+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(buf) > max {
		return nil, fmt.Errorf("netserver: batch body exceeds limit %d", max)
	}
	return buf, nil
}

// countJoined counts the sub-errors of an errors.Join result (IngestBatch
// joins one error per rejected report). Steady state is err == nil;
// everything past the first return only runs for rejected reports.
//
//loloha:noalloc
func countJoined(err error) int {
	if err == nil {
		return 0
	}
	var multi interface{ Unwrap() []error }
	//loloha:alloc-ok cold: only reached when reports were rejected
	if errors.As(err, &multi) {
		return len(multi.Unwrap())
	}
	return 1
}

// handleMergeHTTP is the HTTP transport for collector-tree merges: the
// body is one LME1 merge envelope, applied exactly as on TCP
// (applyMerge), and the per-envelope ack answers as JSON:
// {"seq":..,"merged":..,"duplicate":..}. A body applyMerge refuses is a
// 400. Registered only when AcceptMerges is set.
func (s *Server) handleMergeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.maxBatch)))
	if err != nil {
		s.mergeBad.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("netserver: reading merge body: %w", err))
		return
	}
	ack, err := s.applyMerge(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seq": ack.Seq, "merged": ack.Merged, "duplicate": ack.Status == MergeDuplicate,
	})
}

func (s *Server) handleRoundClose(w http.ResponseWriter, r *http.Request) {
	res, err := s.closeRound()
	if err != nil {
		// The round DID close locally; shipping to the parent failed and
		// the envelope stays spooled in the outbox for the background
		// shipper. Report both — the operator sees the round AND the
		// degradation, and /v1/status tracks the unshipped backlog.
		writeJSON(w, http.StatusOK, map[string]any{
			"round": toRoundJSON(res), "ship_error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, toRoundJSON(res))
}

func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	t, err := strconv.Atoi(r.PathValue("t"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("netserver: bad round index %q", r.PathValue("t")))
		return
	}
	res, err := s.stream.Round(t)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, toRoundJSON(res))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	proto := s.stream.Protocol()
	st := statusJSON{
		Protocol:      proto.Name(),
		Enrolled:      s.stream.Enrolled(),
		Rounds:        s.stream.Rounds(),
		Pending:       s.stream.Pending(),
		Shards:        s.stream.Shards(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		TCP: ingestStatsJSON{
			LiveConns:  s.tcpLive.Load(),
			TotalConns: s.tcpTotal.Load(),
			Reports:    s.tcpReports.Load(),
			Rejected:   s.tcpRejected.Load(),
		},
		HTTP: httpStatsJSON{
			Batches:  s.httpBatches.Load(),
			Reports:  s.httpReports.Load(),
			Rejected: s.httpRejected.Load(),
		},
	}
	spec := proto.Spec()
	st.Spec = &spec
	if s.acceptMerges || s.upstream != nil {
		m := &mergeStatsJSON{
			Frames:               s.mergeFrames.Load(),
			Reports:              s.mergeReports.Load(),
			Rejected:             s.mergeBad.Load(),
			Duplicates:           s.mergeDup.Load(),
			Shipped:              s.shipped.Load(),
			ShipFailed:           s.shipFailed.Load(),
			Retries:              s.shipRetries.Load(),
			OldestUnshippedRound: -1,
		}
		if s.outbox != nil {
			m.Unshipped, m.OldestUnshippedRound = s.outbox.stats()
		}
		if s.acceptMerges {
			m.ExpectLeaves = s.expectLeaves
			m.Quorum = s.quorum
			m.PartialRounds = s.partialRound.Load()
			s.arrivalMu.Lock()
			m.Arrived = len(s.arrivals)
			inRound := make(map[string]bool, len(s.arrivals))
			for leaf := range s.arrivals {
				inRound[leaf] = true
			}
			s.arrivalMu.Unlock()
			if ledger := s.stream.Ledger(); len(ledger) > 0 {
				m.Leaves = make(map[string]leafStatsJSON, len(ledger))
				for _, e := range ledger {
					m.Leaves[e.Leaf] = leafStatsJSON{
						Seq:     e.Seq,
						Round:   e.Round,
						Reports: e.Reports,
						Dups:    e.Dups,
						InRound: inRound[e.Leaf],
					}
				}
			}
		}
		st.Merge = m
	}
	st.SSE.Clients, st.SSE.DroppedRounds = s.hub.stats()
	writeJSON(w, http.StatusOK, st)
}

// handleStream serves the SSE round feed: one `event: round` per
// published RoundResult, JSON data. A client that cannot keep up misses
// rounds (hub drop policy) and can detect the gap from the round indices.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("netserver: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	cl := s.hub.add()
	defer s.hub.remove(cl)
	enc := json.NewEncoder(w)
	for {
		select {
		case res, ok := <-cl.ch:
			if !ok {
				return // hub shut down
			}
			if _, err := io.WriteString(w, "event: round\ndata: "); err != nil {
				return
			}
			if err := enc.Encode(toRoundJSON(res)); err != nil {
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}
