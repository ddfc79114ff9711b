package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

// ratioRows measures three within-run ratios against an in-process
// netserver.Server on loopback, with dbit-http-open's protocol and one
// round of its users per measurement. They are diagnostics: ratios of two
// paths timed back to back survive the machine changes that make absolute
// numbers incomparable, and they gate nothing.
//
//   - ratio.frames_vs_columnar_b256: per-report frames (0x02) ÷ one
//     columnar frame (0x04) per 256 reports;
//   - ratio.columnar_b1_vs_frames: a one-record columnar frame per report
//     ÷ per-report frames, the criterion for deleting per-report framing;
//   - ratio.ingest_vs_merge: ingesting a round's reports ÷ merging the same
//     round as two leaves' envelopes.
//
// Every path sends 256 reports (or one envelope) and waits for the ack.
func ratioRows(smoke bool) (map[string]float64, error) {
	w, err := workloadByName("dbit-http-open")
	if err != nil {
		return nil, err
	}
	users, reps := w.users, 5
	if smoke {
		users, reps = w.smokeUsers, 1
	}
	in, err := newInputs(w.spec, users, 1, 1)
	if err != nil {
		return nil, err
	}
	stream, err := server.NewStream(in.proto, server.WithShards(2))
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	srv, err := netserver.New(netserver.Config{Stream: stream, AcceptMerges: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		srv.ServeTCP(ln)
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	for u := range in.clients {
		if err := stream.Enroll(u, in.clients[u].WireRegistration()); err != nil {
			return nil, err
		}
	}

	// One round of payloads, framed three ways in blocks of 256 reports,
	// each block ending with a flush.
	const block = 256
	enc := in.newEncoder()
	enc.generate(0, 0, users)
	payloads := enc.payloads
	var col256, col1, frames [][]byte
	wb, err := longitudinal.NewColumnarWriter(in.hash, in.stride)
	if err != nil {
		return nil, err
	}
	w1, err := longitudinal.NewColumnarWriter(in.hash, in.stride)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < users; lo += block {
		var c1, f []byte
		wb.Reset()
		for u := lo; u < min(lo+block, users); u++ {
			p := payloads[u*in.stride : (u+1)*in.stride]
			f = netserver.AppendReportFrame(f, u, p)
			w1.Reset()
			if err := errors.Join(w1.Add(u, p), wb.Add(u, p)); err != nil {
				return nil, err
			}
			c1 = netserver.AppendColumnarFrame(c1, w1.AppendTo(nil))
		}
		col256 = append(col256, netserver.AppendFlushFrame(netserver.AppendColumnarFrame(nil, wb.AppendTo(nil))))
		col1 = append(col1, netserver.AppendFlushFrame(c1))
		frames = append(frames, netserver.AppendFlushFrame(f))
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// ingest sends one framing of the round and closes the round in
	// process, so the next measurement starts on a fresh round.
	ingest := func(blocks [][]byte) (time.Duration, error) {
		t := time.Now()
		for _, b := range blocks {
			if _, err := conn.Write(b); err != nil {
				return 0, err
			}
			if _, err := netserver.ReadAck(conn); err != nil {
				return 0, err
			}
		}
		d := time.Since(t)
		if res := stream.CloseRound(); res.Reports != users {
			return 0, fmt.Errorf("ratio round tallied %d of %d reports", res.Reports, users)
		}
		return d, nil
	}
	envelopes, err := leafEnvelopes(in, payloads, reps)
	if err != nil {
		return nil, err
	}
	mc, err := netserver.DialMerge(ln.Addr().String(), 0)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	merge := func(envs [][]byte) (time.Duration, error) {
		t := time.Now()
		for _, env := range envs {
			if _, dup, err := mc.Ship(env); err != nil || dup {
				return 0, fmt.Errorf("ratio merge: duplicate=%v %v", dup, err)
			}
		}
		d := time.Since(t)
		if res := stream.CloseRound(); res.Reports != users {
			return 0, fmt.Errorf("ratio merge round holds %d of %d reports", res.Reports, users)
		}
		return d, nil
	}

	var framesVsCol, col1VsFrames, ingestVsMerge []float64
	for rep := 0; rep < reps; rep++ {
		var t [4]time.Duration
		// Alternate which path goes first from one repetition to the next.
		order := []int{0, 1, 2, 3}
		if rep%2 == 1 {
			order = []int{3, 2, 1, 0}
		}
		for _, k := range order {
			var err error
			switch k {
			case 0:
				t[0], err = ingest(col256)
			case 1:
				t[1], err = ingest(frames)
			case 2:
				t[2], err = ingest(col1)
			case 3:
				t[3], err = merge(envelopes[rep])
			}
			if err != nil {
				return nil, err
			}
		}
		framesVsCol = append(framesVsCol, float64(t[1])/float64(t[0]))
		col1VsFrames = append(col1VsFrames, float64(t[2])/float64(t[1]))
		ingestVsMerge = append(ingestVsMerge, float64(t[0])/float64(t[3]))
	}
	return map[string]float64{
		"ratio.frames_vs_columnar_b256": median(framesVsCol),
		"ratio.columnar_b1_vs_frames":   median(col1VsFrames),
		"ratio.ingest_vs_merge":         median(ingestVsMerge),
	}, nil
}

// leafEnvelopes splits one round's reports over two in-process leaf
// streams and returns, for each repetition, both leaves' LME1 envelopes of
// that round (fresh sequence numbers each time, so none is a duplicate).
func leafEnvelopes(in *inputs, payloads []byte, reps int) ([][][]byte, error) {
	users := in.users()
	out := make([][][]byte, reps)
	for l := 0; l < 2; l++ {
		leaf, err := server.NewStream(in.proto, server.WithShards(1))
		if err != nil {
			return nil, err
		}
		defer leaf.Close()
		lo, hi := l*users/2, (l+1)*users/2
		w, err := longitudinal.NewColumnarWriter(in.hash, in.stride)
		if err != nil {
			return nil, err
		}
		for u := lo; u < hi; u++ {
			if err := leaf.Enroll(u, in.clients[u].WireRegistration()); err != nil {
				return nil, err
			}
			if err := w.Add(u, payloads[u*in.stride:(u+1)*in.stride]); err != nil {
				return nil, err
			}
		}
		var col longitudinal.ColumnarBatch
		if err := longitudinal.DecodeColumnar(w.AppendTo(nil), &col); err != nil {
			return nil, err
		}
		for rep := range out {
			if err := leaf.IngestColumnar(&col); err != nil {
				return nil, err
			}
			res, snap, err := leaf.CloseRoundExport()
			if err != nil {
				return nil, err
			}
			image, err := persist.Append(nil, snap)
			if err != nil {
				return nil, err
			}
			env, err := persist.AppendEnvelopeImage(nil, fmt.Sprintf("leaf-%d", l), res.Round, uint64(rep+1), image)
			if err != nil {
				return nil, err
			}
			out[rep] = append(out[rep], env)
		}
	}
	return out, nil
}
