package main

// The daemon type is lolohad's lifecycle, separated from flag parsing so
// the lifecycle tests can run a real daemon in-process: bind listeners,
// restore state, serve, snapshot on a timer, and shut down gracefully on
// a signal delivered through an injectable channel.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/loloha-ldp/loloha/internal/durable"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/server"
)

// snapshotFile is the state image inside -snapshot-dir. One file, always
// replaced atomically and durably: a crash or power loss mid-write leaves
// the previous image, never a torn one.
const snapshotFile = "stream.lss1"

// daemonOptions is the parsed flag set.
type daemonOptions struct {
	spec     string
	mode     string // single | root | leaf
	parent   string // leaf: parent's TCP address or http(s):// URL
	leafID   string // leaf: stable identity in the parent's dedup ledger
	httpAddr string
	tcpAddr  string
	shards   int
	roundCap int
	round    time.Duration
	maxFrame int
	maxBatch int

	// Root graceful degradation: close the round roundDeadline after its
	// first envelope once quorum leaves arrived; expectLeaves closes early
	// when everyone reported and marks slower closes partial.
	roundDeadline time.Duration
	quorum        int
	expectLeaves  int

	snapDir   string
	snapEvery time.Duration
	drain     time.Duration
}

func (o *daemonOptions) validate() error {
	if o.spec == "" {
		return fmt.Errorf("-spec is required")
	}
	switch o.mode {
	case "single", "root", "leaf":
	default:
		return fmt.Errorf("-mode %q: must be single, root or leaf", o.mode)
	}
	if o.mode == "leaf" && o.parent == "" {
		return fmt.Errorf("-mode leaf requires -parent host:port")
	}
	if o.parent != "" && o.mode == "single" {
		return fmt.Errorf("-parent requires -mode leaf (or root, for an interior node)")
	}
	if o.parent != "" && o.leafID == "" {
		return fmt.Errorf("-parent requires -leaf-id: the parent deduplicates retried rounds " +
			"per leaf identity, and the identity must survive restarts")
	}
	if (o.roundDeadline > 0 || o.quorum > 0 || o.expectLeaves > 0) && o.mode == "leaf" {
		return fmt.Errorf("-round-deadline/-quorum/-expect-leaves apply to a merge-accepting daemon (-mode root)")
	}
	if o.snapEvery > 0 && o.snapDir == "" {
		return fmt.Errorf("-snapshot-every requires -snapshot-dir")
	}
	return nil
}

// daemon is one running lolohad: a stream (possibly restored), the
// netserver engine fronting it, bound listeners, and the shutdown logic.
type daemon struct {
	opts     daemonOptions
	out      io.Writer
	fs       durable.FS // the snapshot's file system; tests substitute a crash model
	proto    longitudinal.Protocol
	stream   *server.Stream
	srv      *netserver.Server
	upstream netserver.MergeSender
	httpLn   net.Listener
	tcpLn    net.Listener

	// sig is the shutdown trigger. main wires os signals into it; tests
	// send directly.
	sig  chan os.Signal
	errc chan error
}

// newDaemon builds the protocol, restores or creates the stream, connects
// upstream (leaf mode) and binds the listeners, so every configuration
// error — bad spec, mismatched snapshot, unreachable parent, busy port —
// fails here, before the daemon reports itself up.
func newDaemon(opts daemonOptions, out io.Writer) (*daemon, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	proto, err := buildProtocol(opts.spec)
	if err != nil {
		return nil, err
	}
	var streamOpts []server.Option
	if opts.shards > 0 {
		streamOpts = append(streamOpts, server.WithShards(opts.shards))
	}
	if opts.roundCap > 0 {
		streamOpts = append(streamOpts, server.WithRoundCapacity(opts.roundCap))
	}
	d := &daemon{
		opts: opts,
		out:  out,
		fs:   durable.OS,
		sig:  make(chan os.Signal, 1),
		errc: make(chan error, 2),
	}
	d.proto = proto
	if d.stream, err = openStream(d.fs, proto, opts, streamOpts, out); err != nil {
		return nil, err
	}

	cfg := netserver.Config{
		Stream:        d.stream,
		MaxFrameBytes: opts.maxFrame,
		MaxBatchBytes: opts.maxBatch,
		RoundEvery:    opts.round,
		AcceptMerges:  opts.mode == "root",
		RoundDeadline: opts.roundDeadline,
		Quorum:        opts.quorum,
		ExpectLeaves:  opts.expectLeaves,
	}
	if opts.parent != "" {
		if d.upstream, err = netserver.NewMergeSender(opts.parent, 0); err != nil {
			d.stream.Close()
			return nil, err
		}
		cfg.Upstream = d.upstream
		cfg.LeafID = opts.leafID
		if opts.snapDir != "" {
			// The outbox shares the durability root with the state image:
			// a leaf with -snapshot-dir survives a crash between round
			// close and the parent's ack too.
			cfg.OutboxDir = filepath.Join(opts.snapDir, "outbox")
		}
	}
	restored := d.stream.Rounds()
	if d.srv, err = netserver.New(cfg); err != nil {
		d.close()
		return nil, err
	}
	if open := d.stream.Rounds(); open != restored {
		fmt.Fprintf(out, "lolohad: outbox already holds round %d, so its restored pending reports were dropped; resuming at round %d\n",
			open-1, open)
	}
	if d.httpLn, err = net.Listen("tcp", opts.httpAddr); err != nil {
		d.close()
		return nil, fmt.Errorf("-http %s: %w", opts.httpAddr, err)
	}
	if opts.tcpAddr != "" {
		if d.tcpLn, err = net.Listen("tcp", opts.tcpAddr); err != nil {
			d.close()
			return nil, fmt.Errorf("-tcp %s: %w", opts.tcpAddr, err)
		}
	}
	return d, nil
}

// openStream restores the stream from -snapshot-dir when an image exists
// there, and creates a fresh one otherwise. A snapshot for a different
// protocol or an unreadable image is a hard startup error: silently
// starting empty would discard durable state. Temp files left by a
// snapshot write that a crash cut short are removed first.
func openStream(fsys durable.FS, proto longitudinal.Protocol, opts daemonOptions,
	streamOpts []server.Option, out io.Writer) (*server.Stream, error) {
	if opts.snapDir == "" {
		return server.NewStream(proto, streamOpts...)
	}
	if err := fsys.MkdirAll(opts.snapDir); err != nil {
		return nil, fmt.Errorf("-snapshot-dir: %w", err)
	}
	if err := durable.RemoveTemps(fsys, opts.snapDir); err != nil {
		return nil, fmt.Errorf("-snapshot-dir: %w", err)
	}
	path := filepath.Join(opts.snapDir, snapshotFile)
	image, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return server.NewStream(proto, streamOpts...)
	}
	if err != nil {
		return nil, fmt.Errorf("opening snapshot: %w", err)
	}
	stream, err := server.RestoreStream(bytes.NewReader(image), proto, streamOpts...)
	if err != nil {
		return nil, fmt.Errorf("restoring %s: %w", path, err)
	}
	fmt.Fprintf(out, "lolohad: restored %s — %d users, %d pending reports, history resumes at round %d\n",
		path, stream.Enrolled(), stream.Pending(), stream.Rounds())
	return stream, nil
}

// run serves until a signal or a listener failure, then shuts down:
// drain the sockets, snapshot, close. The started listeners own their
// goroutines; the loop owns the snapshot timer.
func (d *daemon) run() error {
	defer d.close()
	go func() { d.errc <- d.srv.ServeHTTP(d.httpLn) }()
	fmt.Fprintf(d.out, "lolohad: %s (%s) on http://%s (dashboard at /)\n",
		d.proto.Name(), d.opts.mode, d.httpLn.Addr())
	if d.tcpLn != nil {
		go func() { d.errc <- d.srv.ServeTCP(d.tcpLn) }()
		fmt.Fprintf(d.out, "lolohad: raw-frame ingestion on tcp://%s\n", d.tcpLn.Addr())
	}
	if d.upstream != nil {
		fmt.Fprintf(d.out, "lolohad: shipping closed rounds to %s\n", d.upstream.Addr())
	}
	if d.opts.round > 0 {
		fmt.Fprintf(d.out, "lolohad: closing rounds every %s when reports are pending\n", d.opts.round)
	}

	var snapC <-chan time.Time
	if d.opts.snapEvery > 0 {
		t := time.NewTicker(d.opts.snapEvery)
		defer t.Stop()
		snapC = t.C
		fmt.Fprintf(d.out, "lolohad: snapshotting to %s every %s\n",
			filepath.Join(d.opts.snapDir, snapshotFile), d.opts.snapEvery)
	}
	for {
		select {
		case <-snapC:
			if err := d.writeSnapshot(); err != nil {
				// A failed periodic snapshot (disk full, dir removed) is not
				// fatal: the daemon keeps collecting and the previous image
				// keeps its atomicity guarantee.
				fmt.Fprintf(d.out, "lolohad: snapshot failed: %v\n", err)
			}
		case s := <-d.sig:
			fmt.Fprintf(d.out, "lolohad: %s, shutting down (%d rounds published, %d users enrolled)\n",
				s, d.stream.Rounds(), d.stream.Enrolled())
			return d.shutdown()
		case err := <-d.errc:
			return err
		}
	}
}

// shutdown is the graceful exit: quiesce the sockets so in-flight batches
// tally, then write the final snapshot. Drain errors don't skip the
// snapshot — a partial drain still delivered everything it consumed.
func (d *daemon) shutdown() error {
	if err := d.srv.Drain(d.opts.drain); err != nil {
		fmt.Fprintf(d.out, "lolohad: drain: %v\n", err)
	}
	if err := d.srv.FlushOutbox(d.opts.drain); err != nil {
		// Not fatal: with an outbox directory the unshipped envelopes are
		// spooled and the next start replays them; without one they are
		// lost with the process, which the message makes explicit.
		fmt.Fprintf(d.out, "lolohad: outbox flush: %v\n", err)
	}
	if d.opts.snapDir == "" {
		return nil
	}
	if err := d.writeSnapshot(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	fmt.Fprintf(d.out, "lolohad: final snapshot written (%d pending reports preserved)\n", d.stream.Pending())
	return nil
}

// writeSnapshot replaces the state image through durable.WriteFile: it
// returns once the new image survives a power loss, and a crash before
// that leaves the previous image.
func (d *daemon) writeSnapshot() error {
	return durable.WriteFile(d.fs, d.opts.snapDir, snapshotFile, d.stream.Snapshot)
}

// close tears down whatever newDaemon managed to build; safe on a
// half-constructed daemon and idempotent enough for run's defer.
func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	for _, l := range []net.Listener{d.httpLn, d.tcpLn} {
		// Close also closes tracked listeners, but only after Serve* has
		// registered them; closing here covers newDaemon failing between
		// bind and serve.
		if l != nil {
			l.Close()
		}
	}
	if d.upstream != nil {
		d.upstream.Close()
	}
	if d.stream != nil {
		d.stream.Close()
	}
}
