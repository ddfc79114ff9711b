// Package netserver is the networked collection daemon engine: it fronts
// a server.Stream with real sockets so "millions of users" means remote
// processes, not in-process function calls.
//
// Two ingestion fronts share one Stream:
//
//   - HTTP: JSON enrollment (POST /v1/enroll), binary batched report
//     ingestion (POST /v1/reports, the batch-record format of
//     AppendBatchRecord feeding Stream.IngestBatch), round control
//     (POST /v1/round/close), history and status reads, and a live
//     Server-Sent-Events round stream (GET /v1/stream) behind a hub with
//     per-client buffered channels and an explicit slow-subscriber drop
//     policy. GET / serves a minimal embedded dashboard.
//
//   - Raw TCP: length-prefixed frames (see frame.go) carrying the
//     existing wire formats — longitudinal.AppendRegistration for
//     enrollment, Client.AppendReport payloads for reports — decoded in a
//     per-connection read loop whose steady state reuses one frame buffer
//     and tallies through Stream.Ingest at zero allocations per report,
//     so the PR 3/5 zero-alloc property survives the socket boundary.
//
// Estimates are bit-identical to ingesting the same payloads in-process:
// the daemon adds transport, never arithmetic (pinned by the parity tests
// in e2e_test.go).
package netserver

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/loloha-ldp/loloha/internal/durable"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

// Config parameterizes a daemon engine.
type Config struct {
	// Stream is the collection service to front. Required; the caller
	// retains ownership (the daemon never calls Stream.Close).
	Stream *server.Stream
	// MaxFrameBytes bounds a TCP frame body and an HTTP batch record's
	// payload; oversize frames kill the connection before any allocation
	// sized by the hostile length. Default 1 MiB.
	MaxFrameBytes int
	// MaxBatchBytes bounds an HTTP /v1/reports body. Default 8 MiB.
	MaxBatchBytes int
	// RoundEvery, when positive, closes the round on this period whenever
	// reports are pending (empty rounds are not published). Zero means
	// rounds close only via POST /v1/round/close or the owning process.
	RoundEvery time.Duration
	// SSECapacity is each SSE client's buffered round count; a client
	// whose buffer is full when a round is published drops that round
	// (the hub mirrors Stream's WithRoundCapacity drop-not-block policy).
	// Default 16.
	SSECapacity int
	// AcceptMerges makes this daemon a collector-tree root: merge frames
	// (TCP 0x05) and POST /v1/merge add leaf tallies into the stream's
	// open round. Off by default — a merge frame at a non-root is an
	// unknown frame and drops the connection.
	AcceptMerges bool
	// Upstream makes this daemon a collector-tree leaf: instead of merely
	// closing rounds, the round timer and POST /v1/round/close export each
	// round's merged tallies, wrap them in a merge envelope and ship them
	// to the parent through this sender (with durable spooling and
	// background retry — see LeafID/OutboxDir). The leaf still publishes
	// its local RoundResult (its user partition's estimates). A daemon may
	// set both AcceptMerges and Upstream — an interior node of a deeper
	// tree.
	Upstream MergeSender
	// LeafID is this leaf's stable identity in its parent's dedup ledger.
	// Required with Upstream, and it must survive restarts (a renamed
	// leaf opens a fresh dedup history at the root).
	LeafID string
	// OutboxDir, when set, spools each closed round's envelope to disk
	// before the first ship attempt and replays unshipped envelopes at
	// boot, so a leaf crash between export and ack loses nothing. Empty
	// means in-memory spooling only: retries survive, a crash does not.
	OutboxDir string
	// ShipRetryMin/Max bound the shipper's capped exponential backoff
	// between failed ship attempts. Defaults 200ms and 15s.
	ShipRetryMin time.Duration
	ShipRetryMax time.Duration
	// RoundDeadline, on a root, closes the open round this long after its
	// first envelope arrives even if leaves are missing — a partial round
	// with per-leaf attribution in /v1/status — provided at least Quorum
	// leaves have arrived (below quorum the deadline re-arms). Late
	// envelopes land in the next round; no report is lost. Zero disables
	// deadline closing (rounds close via /v1/round/close or RoundEvery).
	RoundDeadline time.Duration
	// Quorum is the minimum distinct leaves that must have shipped into
	// the open round before RoundDeadline may close it. Default 1.
	Quorum int
	// ExpectLeaves, when positive, is the tree's leaf count: a deadline
	// close with fewer arrivals marks the round partial in /v1/status,
	// and a round reaching ExpectLeaves arrivals closes immediately
	// instead of waiting out the deadline.
	ExpectLeaves int

	// outboxFS is the outbox's file system; nil means durable.OS. Tests
	// substitute a crash model.
	outboxFS durable.FS
}

// Server is the daemon engine: listeners, connection registry, SSE hub
// and round timer around one server.Stream. Create with New, attach
// listeners with ServeTCP/ServeHTTP (or mount Handler in a test server),
// stop with Close.
type Server struct {
	stream       *server.Stream
	maxFrame     int
	maxBatch     int
	hub          *hub
	mux          *http.ServeMux
	roundTick    time.Duration
	started      time.Time
	acceptMerges bool
	upstream     MergeSender
	leafID       string
	outbox       *outbox
	shipMin      time.Duration
	shipMax      time.Duration

	// Root graceful degradation: deadline/quorum round closing with
	// per-leaf arrival attribution for the open round.
	roundDeadline time.Duration
	quorum        int
	expectLeaves  int
	arrivalMu     sync.Mutex
	arrivals      map[string]int // leaf → reports merged into the open round
	deadlineArm   chan struct{}  // cap 1: first arrival arms the deadline

	// shipMu serializes ship attempts (the background shipper and the
	// inline attempt a round close makes); shipKick wakes the shipper.
	shipMu   sync.Mutex
	shipKick chan struct{}

	// Live counters, all monotonic except tcpLive.
	tcpTotal     atomic.Uint64
	tcpLive      atomic.Int64
	tcpReports   atomic.Uint64
	tcpRejected  atomic.Uint64
	httpBatches  atomic.Uint64
	httpReports  atomic.Uint64
	httpRejected atomic.Uint64
	mergeFrames  atomic.Uint64 // root: merge frames/requests applied
	mergeReports atomic.Uint64 // root: reports merged from leaves
	mergeBad     atomic.Uint64 // root: undecodable or mismatched merges
	mergeDup     atomic.Uint64 // root: envelopes deduplicated, not reapplied
	partialRound atomic.Uint64 // root: deadline closes below ExpectLeaves
	shipped      atomic.Uint64 // leaf: envelopes confirmed (applied or dup)
	shipFailed   atomic.Uint64 // leaf: ship attempts that errored
	shipRetries  atomic.Uint64 // leaf: backoff retries scheduled

	mu        sync.Mutex
	listeners []net.Listener
	// tcpListeners is the raw-frame subset of listeners: Drain closes
	// these directly (stopping new connections) while the HTTP listeners
	// shut down gracefully through their http.Server.
	tcpListeners []net.Listener
	httpSrvs     []*http.Server
	conns        map[net.Conn]struct{}
	draining     bool
	closed       bool
	done         chan struct{}
	wg           sync.WaitGroup
	// connWg tracks TCP connection goroutines separately from the
	// engine's own (forwardRounds, roundTimer), so Drain can wait for
	// in-flight frames without deadlocking on goroutines that only exit
	// at Close.
	connWg sync.WaitGroup
}

// New returns an engine fronting cfg.Stream. The SSE hub subscribes to
// the stream immediately, so rounds closed before any listener is
// attached still reach later SSE clients' history via /v1/rounds.
func New(cfg Config) (*Server, error) {
	if cfg.Stream == nil {
		return nil, fmt.Errorf("netserver: nil Stream")
	}
	if cfg.MaxFrameBytes == 0 {
		cfg.MaxFrameBytes = 1 << 20
	}
	if cfg.MaxFrameBytes < frameMinBody {
		return nil, fmt.Errorf("netserver: MaxFrameBytes %d below minimum frame body %d",
			cfg.MaxFrameBytes, frameMinBody)
	}
	if cfg.MaxBatchBytes == 0 {
		cfg.MaxBatchBytes = 8 << 20
	}
	if cfg.SSECapacity == 0 {
		cfg.SSECapacity = 16
	}
	if cfg.SSECapacity < 1 {
		return nil, fmt.Errorf("netserver: SSECapacity must be at least 1, got %d", cfg.SSECapacity)
	}
	if cfg.Upstream != nil {
		if cfg.LeafID == "" {
			return nil, fmt.Errorf("netserver: Upstream requires a LeafID (the parent's dedup ledger key)")
		}
		if len(cfg.LeafID) > persist.MaxLeafName {
			return nil, fmt.Errorf("netserver: LeafID %d bytes, max %d", len(cfg.LeafID), persist.MaxLeafName)
		}
	}
	if cfg.OutboxDir != "" && cfg.Upstream == nil {
		return nil, fmt.Errorf("netserver: OutboxDir without an Upstream to ship to")
	}
	if cfg.ShipRetryMin <= 0 {
		cfg.ShipRetryMin = 200 * time.Millisecond
	}
	if cfg.ShipRetryMax <= 0 {
		cfg.ShipRetryMax = 15 * time.Second
	}
	if (cfg.RoundDeadline > 0 || cfg.Quorum > 0 || cfg.ExpectLeaves > 0) && !cfg.AcceptMerges {
		return nil, fmt.Errorf("netserver: RoundDeadline/Quorum/ExpectLeaves apply to a root (AcceptMerges)")
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = 1
	}
	s := &Server{
		stream:        cfg.Stream,
		maxFrame:      cfg.MaxFrameBytes,
		maxBatch:      cfg.MaxBatchBytes,
		hub:           newHub(cfg.SSECapacity),
		roundTick:     cfg.RoundEvery,
		started:       time.Now(),
		acceptMerges:  cfg.AcceptMerges,
		upstream:      cfg.Upstream,
		leafID:        cfg.LeafID,
		shipMin:       cfg.ShipRetryMin,
		shipMax:       cfg.ShipRetryMax,
		roundDeadline: cfg.RoundDeadline,
		quorum:        cfg.Quorum,
		expectLeaves:  cfg.ExpectLeaves,
		conns:         map[net.Conn]struct{}{},
		done:          make(chan struct{}),
	}
	if s.acceptMerges {
		s.arrivals = map[string]int{}
		s.deadlineArm = make(chan struct{}, 1)
	}
	if s.upstream != nil {
		if cfg.outboxFS == nil {
			cfg.outboxFS = durable.OS
		}
		ob, err := openOutbox(cfg.outboxFS, cfg.OutboxDir, cfg.LeafID)
		if err != nil {
			return nil, err
		}
		if ob.lastRound >= 0 {
			s.stream.ResumeAfter(ob.lastRound)
		}
		s.outbox = ob
		s.shipKick = make(chan struct{}, 1)
	}
	s.mux = s.newMux()
	s.wg.Add(1)
	go s.forwardRounds()
	if s.roundTick > 0 {
		s.wg.Add(1)
		go s.roundTimer()
	}
	if s.upstream != nil {
		s.wg.Add(1)
		go s.shipper()
		if n, _ := s.outbox.stats(); n > 0 {
			// Boot replay: envelopes spooled by a previous process ship as
			// soon as the parent is reachable.
			s.kickShipper()
		}
	}
	if s.acceptMerges && s.roundDeadline > 0 {
		s.wg.Add(1)
		go s.deadlineLoop()
	}
	return s, nil
}

// Stream returns the fronted collection service.
func (s *Server) Stream() *server.Stream { return s.stream }

// forwardRounds pumps every published RoundResult into the SSE hub until
// the stream or the server closes.
func (s *Server) forwardRounds() {
	defer s.wg.Done()
	sub := s.stream.Subscribe()
	for {
		select {
		case res, ok := <-sub:
			if !ok {
				s.hub.closeAll()
				return
			}
			s.hub.broadcast(res)
		case <-s.done:
			return
		}
	}
}

// roundTimer closes the round every RoundEvery while reports are pending.
// A leaf (Config.Upstream) ships each closed round's tallies upstream
// instead of only publishing locally.
func (s *Server) roundTimer() {
	defer s.wg.Done()
	t := time.NewTicker(s.roundTick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.stream.Pending() > 0 {
				s.closeRound()
			}
		case <-s.done:
			return
		}
	}
}

// closeRound closes the stream's round through the daemon's role: a leaf
// exports the tallies into the outbox and ships, a root resets its
// per-leaf arrival attribution, everything else just closes. The
// returned error is the spool or ship failure, if any; the local
// RoundResult is published either way, and a failed ship leaves the
// envelope in the outbox for the background shipper — delivery is
// deferred, never abandoned.
func (s *Server) closeRound() (server.RoundResult, error) {
	if s.acceptMerges {
		s.resetArrivals()
	}
	if s.upstream == nil {
		return s.stream.CloseRound(), nil
	}
	res, snap, err := s.stream.CloseRoundExport()
	if err != nil {
		return res, err
	}
	if res.Reports == 0 {
		// Nothing to merge upstream; an empty round does not burn a
		// sequence number or a spool file.
		return res, nil
	}
	image, err := persist.Append(nil, snap)
	if err != nil {
		return res, fmt.Errorf("netserver: encoding round %d export: %w", res.Round, err)
	}
	seq, spoolErr := s.outbox.add(res.Round, image)
	if shipErr := s.shipPending(); shipErr != nil {
		// First attempt failed: the envelope stays spooled and the
		// background shipper retries with backoff until the parent acks.
		s.kickShipper()
		return res, fmt.Errorf("netserver: shipping round %d (envelope seq %d) upstream (spooled for retry): %w",
			res.Round, seq, shipErr)
	}
	if spoolErr != nil {
		// The envelope DID ship; only its durability write failed.
		return res, spoolErr
	}
	return res, nil
}

// shipPending ships every outbox envelope in sequence order, oldest
// first, stopping at the first failure. An envelope is removed only on a
// confirmed ack — applied or duplicate, both mean the parent has it.
func (s *Server) shipPending() error {
	s.shipMu.Lock()
	defer s.shipMu.Unlock()
	for {
		item, ok := s.outbox.first()
		if !ok {
			return nil
		}
		// Applied and duplicate are both confirmations: the parent holds
		// the envelope's tallies either way.
		if _, _, err := s.upstream.Ship(item.env); err != nil {
			s.shipFailed.Add(1)
			return err
		}
		s.outbox.ack(item.seq)
		s.shipped.Add(1)
	}
}

// kickShipper wakes the background shipper without blocking.
func (s *Server) kickShipper() {
	select {
	case s.shipKick <- struct{}{}:
	default:
	}
}

// shipper drains the outbox in the background, retrying failed ships
// with capped exponential backoff plus deterministic jitter (seeded from
// the leaf identity, so a fleet retrying the same outage spreads out
// while any one leaf stays reproducible).
func (s *Server) shipper() {
	defer s.wg.Done()
	jitter := randsrc.NewSplitMix64(seqHash(s.leafID))
	backoff := s.shipMin
	for {
		select {
		case <-s.done:
			return
		case <-s.shipKick:
		}
		for {
			if err := s.shipPending(); err == nil {
				backoff = s.shipMin
				break
			}
			s.shipRetries.Add(1)
			delay := backoff + time.Duration(jitter.Uint64()%uint64(backoff/2+1))
			if backoff *= 2; backoff > s.shipMax {
				backoff = s.shipMax
			}
			select {
			case <-s.done:
				return
			case <-time.After(delay):
			}
		}
	}
}

// FlushOutbox blocks until every spooled envelope has been confirmed by
// the parent or the timeout passes, returning an error in the latter
// case with the count still unshipped. A non-leaf returns nil.
func (s *Server) FlushOutbox(timeout time.Duration) error {
	if s.outbox == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		n, oldest := s.outbox.stats()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netserver: %d envelopes still unshipped (oldest round %d)", n, oldest)
		}
		s.kickShipper()
		time.Sleep(5 * time.Millisecond)
	}
}

// noteLeafArrival records a fresh (non-duplicate) envelope merged into
// the open round, for partial-round attribution and the deadline/quorum
// close. The first arrival of a round arms the deadline timer; reaching
// ExpectLeaves distinct leaves closes the round immediately.
func (s *Server) noteLeafArrival(leaf string, reports int) {
	s.arrivalMu.Lock()
	prev := len(s.arrivals)
	s.arrivals[leaf] += reports
	n := len(s.arrivals)
	s.arrivalMu.Unlock()
	if s.roundDeadline == 0 || n == prev {
		return // no deadline configured, or a leaf shipping twice in one round
	}
	if n == 1 {
		select {
		case s.deadlineArm <- struct{}{}:
		default:
		}
	}
	if s.expectLeaves > 0 && n == s.expectLeaves {
		// Everybody reported: close now rather than waiting out the
		// deadline. closeRound resets the arrival map; the already-armed
		// timer fires into an empty (or re-armed) round harmlessly.
		s.closeRound()
	}
}

func (s *Server) resetArrivals() {
	s.arrivalMu.Lock()
	clear(s.arrivals)
	s.arrivalMu.Unlock()
}

// arrivalCount returns the distinct leaves merged into the open round.
func (s *Server) arrivalCount() int {
	s.arrivalMu.Lock()
	defer s.arrivalMu.Unlock()
	return len(s.arrivals)
}

// deadlineLoop closes a root's round RoundDeadline after the round's
// first envelope arrives, once at least Quorum leaves have shipped —
// graceful degradation: a slow or dead leaf delays the round by at most
// the deadline instead of stalling it forever, and its late envelope
// lands in the next round. Below quorum the deadline re-arms.
func (s *Server) deadlineLoop() {
	defer s.wg.Done()
	timer := time.NewTimer(s.roundDeadline)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.deadlineArm:
			timer.Reset(s.roundDeadline)
		case <-timer.C:
			n := s.arrivalCount()
			if n == 0 {
				continue // the round already closed through another path
			}
			if n < s.quorum {
				timer.Reset(s.roundDeadline)
				continue
			}
			if s.expectLeaves > 0 && n < s.expectLeaves {
				s.partialRound.Add(1)
			}
			s.closeRound()
		}
	}
}

// ServeTCP accepts raw-frame connections on l until l or the server
// closes. It blocks; run it in a goroutine. The listener is closed by
// Server.Close.
func (s *Server) ServeTCP(l net.Listener) error {
	if !s.track(l) {
		l.Close()
		return fmt.Errorf("netserver: server closed")
	}
	s.mu.Lock()
	s.tcpListeners = append(s.tcpListeners, l)
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil // closed by Close; not an error
			default:
				if s.isDraining() {
					return nil // listener closed by Drain; not an error
				}
				return err
			}
		}
		if !s.trackConn(nc) {
			nc.Close()
			return nil
		}
		s.tcpTotal.Add(1)
		s.tcpLive.Add(1)
		s.wg.Add(1)
		s.connWg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.connWg.Done()
			defer s.untrackConn(nc)
			defer s.tcpLive.Add(-1)
			newTCPConn(s, nc).serve()
		}()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ServeHTTP serves the daemon's HTTP API on l until l or the server
// closes. It blocks; run it in a goroutine.
func (s *Server) ServeHTTP(l net.Listener) error {
	if !s.track(l) {
		l.Close()
		return fmt.Errorf("netserver: server closed")
	}
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.httpSrvs = append(s.httpSrvs, srv)
	s.mu.Unlock()
	err := srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil // Drain shut it down gracefully
	}
	select {
	case <-s.done:
		return nil
	default:
		if s.isDraining() {
			return nil
		}
		return err
	}
}

// Handler exposes the HTTP API for tests and embedding (httptest.Server,
// custom TLS fronting, an existing mux).
func (s *Server) Handler() http.Handler { return s.mux }

// track registers a listener; false when the server is already closed.
func (s *Server) track(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners = append(s.listeners, l)
	return true
}

func (s *Server) trackConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[nc] = struct{}{}
	return true
}

func (s *Server) untrackConn(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, nc)
	nc.Close()
}

// Drain gracefully quiesces ingestion within the timeout: new
// connections stop (listeners close), in-flight HTTP requests finish
// (http.Server.Shutdown), and live TCP connections get until the
// deadline to be consumed — frames already buffered in a connection are
// read and applied, so a batch in flight when shutdown begins still
// tallies before the final snapshot, instead of being cut off mid-frame.
// A connection still open at the deadline is abandoned to Close.
//
// Drain does not stop the engine: call Close afterwards. The intended
// shutdown sequence of a durable daemon is Drain → Stream.Snapshot →
// Close, so the snapshot includes everything the sockets delivered.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	tcpLs := append([]net.Listener(nil), s.tcpListeners...)
	httpSrvs := append([]*http.Server(nil), s.httpSrvs...)
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for _, l := range tcpLs {
		l.Close()
	}
	// A read deadline lets each connection loop consume everything already
	// buffered and then exit on the timeout (or earlier, on the client's
	// EOF) instead of blocking in ReadFull forever.
	for _, nc := range conns {
		nc.SetReadDeadline(deadline)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var err error
	for _, srv := range httpSrvs {
		if e := srv.Shutdown(ctx); e != nil && err == nil {
			err = fmt.Errorf("netserver: draining HTTP: %w", e)
		}
	}
	done := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		err = fmt.Errorf("netserver: drain deadline passed with TCP connections still open")
	}
	return err
}

// Close stops the daemon: listeners and live connections close, the round
// timer and hub forwarding stop, and every SSE client's channel closes.
// The fronted Stream is left open — rounds already published stay
// readable and the owner may keep ingesting in-process. Close is
// idempotent and waits for connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	for _, l := range s.listeners {
		l.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.hub.closeAll()
	return nil
}
