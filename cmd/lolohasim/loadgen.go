package main

// loadgen drives a running lolohad daemon with synthetic users: it reads
// the daemon's protocol spec from /v1/status, builds the same protocol
// locally, enrolls -users clients and pushes -rounds rounds of reports
// over HTTP batch bodies, raw TCP frames, or (-columnar) columnar batches
// on either transport.
//
//	lolohad -spec '{"family":"LOLOHA","k":100,"g":2,"eps_inf":2,"eps1":1}' -tcp :9090 &
//	lolohasim loadgen -addr http://127.0.0.1:8080 -users 10000
//	lolohasim loadgen -addr http://127.0.0.1:8080 -tcp 127.0.0.1:9090
//	lolohasim loadgen -addr http://127.0.0.1:8080 -tcp 127.0.0.1:9090 -columnar

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

type loadgenOptions struct {
	addr      string
	tcpAddr   string
	users     int
	firstID   int
	partition string
	rounds    int
	batch     int
	workers   int
	seed      uint64
	closeEach bool
	columnar  bool
}

// applyPartition narrows the run to slice i of K ("-partition i/K"): the
// user range becomes the i-th of K near-equal blocks of the full range.
// Client seeds and report values are keyed on the absolute user ID and
// round, so K partitioned runs (one per collector-tree leaf) ship exactly
// the reports one full run would — no overlap, nothing missed.
func (o *loadgenOptions) applyPartition() error {
	if o.partition == "" {
		return nil
	}
	var i, k int
	if n, err := fmt.Sscanf(o.partition, "%d/%d", &i, &k); err != nil || n != 2 {
		return fmt.Errorf("loadgen: -partition %q: want i/K, e.g. 0/2", o.partition)
	}
	if k <= 0 || i < 0 || i >= k {
		return fmt.Errorf("loadgen: -partition %q: need 0 <= i < K", o.partition)
	}
	lo, hi := o.firstID+i*o.users/k, o.firstID+(i+1)*o.users/k
	if lo == hi {
		return fmt.Errorf("loadgen: -partition %s of %d users is empty", o.partition, o.users)
	}
	o.firstID, o.users = lo, hi-lo
	return nil
}

func loadgenCmd(args []string) error {
	fs := flag.NewFlagSet("lolohasim loadgen", flag.ContinueOnError)
	var o loadgenOptions
	var seed64 int64
	fs.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "daemon HTTP base URL (spec discovery, enrollment, round control)")
	fs.StringVar(&o.tcpAddr, "tcp", "", "daemon raw-frame TCP address; when set, enrollment and reports go over TCP frames instead of HTTP")
	fs.IntVar(&o.users, "users", 10_000, "synthetic users to enroll")
	fs.IntVar(&o.firstID, "firstid", 0, "first user ID (separate runs against one daemon need disjoint ID ranges)")
	fs.StringVar(&o.partition, "partition", "", "drive only slice i/K of the user range (collector-tree leaves: one loadgen per leaf, same -users and -seed)")
	fs.IntVar(&o.rounds, "rounds", 5, "collection rounds to push")
	fs.IntVar(&o.batch, "batch", 1024, "reports per batch body (HTTP and columnar)")
	fs.BoolVar(&o.columnar, "columnar", false, "push reports as columnar batches (columnar TCP frames / "+netserver.ContentTypeColumnar+" bodies)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent connections (0 = GOMAXPROCS)")
	fs.Int64Var(&seed64, "seed", 42, "client randomness seed")
	fs.BoolVar(&o.closeEach, "close", true, "close the daemon's round after each pushed round")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.seed = uint64(seed64)
	if o.users <= 0 || o.rounds <= 0 || o.batch <= 0 {
		return fmt.Errorf("loadgen: -users, -rounds and -batch must be positive")
	}
	if o.firstID < 0 {
		return fmt.Errorf("loadgen: -firstid must be non-negative")
	}
	if err := o.applyPartition(); err != nil {
		return err
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.workers > o.users {
		o.workers = o.users
	}
	return loadgen(o)
}

func loadgen(o loadgenOptions) error {
	proto, baseRounds, err := discoverProtocol(o.addr)
	if err != nil {
		return err
	}
	k := proto.K()
	fmt.Printf("loadgen: %s (k=%d), %d users x %d rounds over %s, %d workers\n",
		proto.Name(), k, o.users, o.rounds, transportName(o), o.workers)

	// Each worker owns a contiguous user block end to end: its clients,
	// its connection, its reusable buffers.
	type result struct {
		sent, rejected uint64
		err            error
	}
	results := make([]result, o.workers)
	var wg sync.WaitGroup
	var barrier sync.WaitGroup // all workers finish a round before it closes

	start := time.Now()
	rounds := make([]chan int, o.workers)
	for w := range rounds {
		rounds[w] = make(chan int)
	}
	for w := 0; w < o.workers; w++ {
		lo, hi := o.firstID+w*o.users/o.workers, o.firstID+(w+1)*o.users/o.workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// A worker that dies early must keep the round barrier moving,
			// or the coordinator deadlocks sending it rounds: drain the
			// channel and count each skipped round off the barrier.
			defer func() {
				for range rounds[w] {
					barrier.Done()
				}
			}()
			res := &results[w]
			clients := make([]longitudinal.Client, hi-lo)
			for i := range clients {
				clients[i] = proto.NewClient(o.seed + uint64(lo+i))
			}
			var push pusher
			if o.columnar {
				push, res.err = newColumnarPusher(o, proto)
			} else if o.tcpAddr != "" {
				push, res.err = newTCPPusher(o.tcpAddr)
			} else {
				push, res.err = newHTTPPusher(o.addr, o.batch)
			}
			if res.err != nil {
				return
			}
			defer push.close()
			if res.err = push.enroll(lo, clients); res.err != nil {
				return
			}
			for round := range rounds[w] {
				var payload []byte
				for i, cl := range clients {
					u := lo + i
					v := int(randsrc.Mix64(o.seed^uint64(u)<<20^uint64(round)) % uint64(k))
					payload = cl.AppendReport(payload[:0], v)
					if err := push.report(u, payload); err != nil {
						res.err = err
						break
					}
				}
				sent, rejected, err := push.flush()
				res.sent += sent
				res.rejected += rejected
				if res.err == nil {
					res.err = err
				}
				barrier.Done()
			}
		}(w, lo, hi)
	}

	for round := 0; round < o.rounds; round++ {
		barrier.Add(o.workers)
		for w := range rounds {
			rounds[w] <- round
		}
		barrier.Wait()
		for w := range results {
			if results[w].err != nil {
				stopWorkers(rounds)
				wg.Wait()
				return fmt.Errorf("worker %d: %w", w, results[w].err)
			}
		}
		if o.closeEach {
			reports, err := closeRound(o.addr)
			if err != nil {
				stopWorkers(rounds)
				wg.Wait()
				return err
			}
			fmt.Printf("loadgen: round %d closed with %d reports\n", round, reports)
		} else if round < o.rounds-1 {
			// The daemon owns round closure (its -round timer or another
			// operator); pushing the next round before this one closes
			// would only produce duplicate rejections, so wait for the
			// round counter to advance.
			if err := waitForRound(o.addr, baseRounds+round+1); err != nil {
				stopWorkers(rounds)
				wg.Wait()
				return err
			}
		}
	}
	stopWorkers(rounds)
	wg.Wait()

	var sent, rejected uint64
	for _, r := range results {
		sent += r.sent
		rejected += r.rejected
	}
	elapsed := time.Since(start)
	fmt.Printf("loadgen: %d reports (%d rejected) in %s — %.0f reports/s\n",
		sent, rejected, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	if rejected > 0 {
		return fmt.Errorf("loadgen: daemon rejected %d reports", rejected)
	}
	return nil
}

func stopWorkers(rounds []chan int) {
	for _, ch := range rounds {
		close(ch)
	}
}

func transportName(o loadgenOptions) string {
	name := o.addr
	if o.tcpAddr != "" {
		name = "tcp://" + o.tcpAddr
	}
	if o.columnar {
		name += " (columnar)"
	}
	return name
}

// discoverProtocol builds the daemon's protocol locally from the spec it
// publishes on /v1/status, so client and server agree by construction. It
// also returns the daemon's published round count, the baseline for
// daemon-paced runs.
func discoverProtocol(addr string) (longitudinal.Protocol, int, error) {
	st, err := fetchStatus(addr)
	if err != nil {
		return nil, 0, err
	}
	if st.Spec == nil {
		return nil, 0, fmt.Errorf("loadgen: daemon protocol %q publishes no buildable spec", st.Protocol)
	}
	proto, err := st.Spec.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("loadgen: building daemon spec: %w", err)
	}
	return proto, st.Rounds, nil
}

type daemonStatus struct {
	Protocol string                     `json:"protocol"`
	Spec     *longitudinal.ProtocolSpec `json:"spec"`
	Rounds   int                        `json:"rounds"`
}

func fetchStatus(addr string) (daemonStatus, error) {
	var st daemonStatus
	resp, err := http.Get(addr + "/v1/status")
	if err != nil {
		return st, fmt.Errorf("loadgen: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("loadgen: decoding /v1/status: %w", err)
	}
	return st, nil
}

// waitForRound polls until the daemon has published at least `rounds`
// rounds.
func waitForRound(addr string, rounds int) error {
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := fetchStatus(addr)
		if err != nil {
			return err
		}
		if st.Rounds >= rounds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: daemon stuck at %d rounds waiting for %d — is its -round timer on?", st.Rounds, rounds)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func closeRound(addr string) (int, error) {
	resp, err := http.Post(addr+"/v1/round/close", "application/json", http.NoBody)
	if err != nil {
		return 0, fmt.Errorf("loadgen: closing round: %w", err)
	}
	defer resp.Body.Close()
	var round struct {
		Round   int `json:"round"`
		Reports int `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&round); err != nil {
		return 0, fmt.Errorf("loadgen: decoding round result: %w", err)
	}
	return round.Reports, nil
}

// pusher is one worker's transport: enroll its users once, then stream
// reports with batching left to the implementation. flush pushes out any
// buffered reports and returns what the daemon acknowledged.
type pusher interface {
	enroll(firstID int, clients []longitudinal.Client) error
	report(userID int, payload []byte) error
	flush() (sent, rejected uint64, err error)
	close()
}

// ---------------------------------------------------------------------------
// HTTP transport: JSON enrollment, binary batch bodies.

type httpPusher struct {
	base     string
	client   *http.Client
	body     []byte
	batch    int
	buffered int
	sent     uint64
	rejected uint64
}

func newHTTPPusher(base string, batch int) (pusher, error) {
	return &httpPusher{base: base, client: http.DefaultClient, batch: batch}, nil
}

func (p *httpPusher) enroll(firstID int, clients []longitudinal.Client) error {
	for i, cl := range clients {
		reg := cl.WireRegistration()
		body, err := json.Marshal(map[string]any{
			"user_id":   firstID + i,
			"hash_seed": reg.HashSeed,
			"sampled":   reg.Sampled,
		})
		if err != nil {
			return err
		}
		resp, err := p.client.Post(p.base+"/v1/enroll", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		// 409 means already enrolled with the same metadata on a rerun
		// against a live daemon — only a changed registration is fatal,
		// and the daemon reports that as 409 too; treat both as fatal to
		// keep reruns honest.
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("enroll user %d: HTTP %d", firstID+i, resp.StatusCode)
		}
	}
	return nil
}

func (p *httpPusher) report(userID int, payload []byte) error {
	p.body = netserver.AppendBatchRecord(p.body, userID, payload)
	p.buffered++
	if p.buffered >= p.batch {
		return p.post()
	}
	return nil
}

func (p *httpPusher) post() error {
	if p.buffered == 0 {
		return nil
	}
	if err := p.postReports("application/octet-stream", p.body); err != nil {
		return err
	}
	p.body = p.body[:0]
	p.buffered = 0
	return nil
}

// postReports POSTs one /v1/reports body of the given content type and
// folds the daemon's accounting into the pusher's counters.
func (p *httpPusher) postReports(contentType string, body []byte) error {
	resp, err := p.client.Post(p.base+"/v1/reports", contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var got struct {
		Received int `json:"received"`
		Rejected int `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batch POST: HTTP %d", resp.StatusCode)
	}
	p.sent += uint64(got.Received)
	p.rejected += uint64(got.Rejected)
	return nil
}

func (p *httpPusher) flush() (uint64, uint64, error) {
	err := p.post()
	sent, rejected := p.sent, p.rejected
	p.sent, p.rejected = 0, 0
	return sent, rejected, err
}

func (p *httpPusher) close() {}

// ---------------------------------------------------------------------------
// TCP transport: enroll and report frames, flush as the sync point.

type tcpPusher struct {
	conn     net.Conn
	buf      []byte
	acked    netserver.Ack // counters are connection-lifetime; diff per flush
	enrolled int
}

func newTCPPusher(addr string) (pusher, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpPusher{conn: conn}, nil
}

func (p *tcpPusher) enroll(firstID int, clients []longitudinal.Client) error {
	p.buf = p.buf[:0]
	for i, cl := range clients {
		var err error
		if p.buf, err = netserver.AppendEnrollFrame(p.buf, firstID+i, cl.WireRegistration()); err != nil {
			return err
		}
	}
	if _, err := p.conn.Write(netserver.AppendFlushFrame(p.buf)); err != nil {
		return err
	}
	ack, err := netserver.ReadAck(p.conn)
	if err != nil {
		return err
	}
	if ack.EnrollRejected > 0 {
		return fmt.Errorf("daemon rejected %d enrollments", ack.EnrollRejected)
	}
	p.buf = p.buf[:0]
	p.acked = ack
	p.enrolled = len(clients)
	return nil
}

func (p *tcpPusher) report(userID int, payload []byte) error {
	p.buf = netserver.AppendReportFrame(p.buf, userID, payload)
	// One TCP write per ~64 KiB keeps syscall overhead off the clock
	// without a second buffering layer.
	if len(p.buf) >= 64<<10 {
		if _, err := p.conn.Write(p.buf); err != nil {
			return err
		}
		p.buf = p.buf[:0]
	}
	return nil
}

func (p *tcpPusher) flush() (uint64, uint64, error) {
	if _, err := p.conn.Write(netserver.AppendFlushFrame(p.buf)); err != nil {
		return 0, 0, err
	}
	p.buf = p.buf[:0]
	ack, err := netserver.ReadAck(p.conn)
	if err != nil {
		return 0, 0, err
	}
	sent := ack.Reports - p.acked.Reports
	rejected := ack.ReportRejected - p.acked.ReportRejected
	p.acked = ack
	return sent, rejected, nil
}

func (p *tcpPusher) close() { p.conn.Close() }

// ---------------------------------------------------------------------------
// Columnar transport: enrollment rides the per-report paths (JSON or
// enroll frames), reports ship as columnar batches — the daemon's
// decode-free fast path.

// newColumnarPusher wraps the transport selected by -tcp with a columnar
// report encoder sized to -batch.
func newColumnarPusher(o loadgenOptions, proto longitudinal.Protocol) (pusher, error) {
	w, err := longitudinal.NewColumnarWriter(proto.Spec().Hash(), proto.WireTallier().PayloadStride())
	if err != nil {
		return nil, err
	}
	if o.tcpAddr != "" {
		inner, err := newTCPPusher(o.tcpAddr)
		if err != nil {
			return nil, err
		}
		return &tcpColumnarPusher{tcpPusher: inner.(*tcpPusher), w: w, batch: o.batch}, nil
	}
	inner, err := newHTTPPusher(o.addr, o.batch)
	if err != nil {
		return nil, err
	}
	return &httpColumnarPusher{httpPusher: inner.(*httpPusher), w: w}, nil
}

type httpColumnarPusher struct {
	*httpPusher // JSON enrollment and /v1/reports accounting
	w           *longitudinal.ColumnarWriter
	enc         []byte
}

func (p *httpColumnarPusher) report(userID int, payload []byte) error {
	if err := p.w.Add(userID, payload); err != nil {
		return err
	}
	if p.w.Count() >= p.batch {
		return p.post()
	}
	return nil
}

func (p *httpColumnarPusher) post() error {
	if p.w.Count() == 0 {
		return nil
	}
	p.enc = p.w.AppendTo(p.enc[:0])
	p.w.Reset()
	return p.postReports(netserver.ContentTypeColumnar, p.enc)
}

func (p *httpColumnarPusher) flush() (uint64, uint64, error) {
	err := p.post()
	sent, rejected := p.sent, p.rejected
	p.sent, p.rejected = 0, 0
	return sent, rejected, err
}

type tcpColumnarPusher struct {
	*tcpPusher // enroll frames, flush barrier, ack accounting
	w          *longitudinal.ColumnarWriter
	batch      int
	enc        []byte
}

func (p *tcpColumnarPusher) report(userID int, payload []byte) error {
	if err := p.w.Add(userID, payload); err != nil {
		return err
	}
	if p.w.Count() < p.batch {
		return nil
	}
	return p.emit()
}

func (p *tcpColumnarPusher) emit() error {
	if p.w.Count() == 0 {
		return nil
	}
	p.enc = p.w.AppendTo(p.enc[:0])
	p.w.Reset()
	p.buf = netserver.AppendColumnarFrame(p.buf, p.enc)
	if len(p.buf) >= 64<<10 {
		if _, err := p.conn.Write(p.buf); err != nil {
			return err
		}
		p.buf = p.buf[:0]
	}
	return nil
}

func (p *tcpColumnarPusher) flush() (uint64, uint64, error) {
	if err := p.emit(); err != nil {
		return 0, 0, err
	}
	return p.tcpPusher.flush()
}
