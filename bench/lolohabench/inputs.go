package main

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/domain"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// inputs is everything a run derives from its seed: the evolving values
// (the paper's Syn model), one client per user seeded exactly as
// server.WithCohort seeds its cohort, and the registrations the daemons
// enroll. It is also the ground truth the correctness checks compare to.
type inputs struct {
	spec    longitudinal.ProtocolSpec
	proto   longitudinal.Protocol
	ds      *datasets.Dataset
	seed    uint64
	clients []longitudinal.AppendReporter
	stride  int
	hash    uint64
}

// newInputs draws rounds rounds of datasets.Syn. Every round carries new
// values for a quarter of the users, as the model has it: a run never
// repeats a round, so clients keep meeting values they have not memoized.
func newInputs(spec longitudinal.ProtocolSpec, users, rounds int, seed uint64) (*inputs, error) {
	proto, err := spec.Build()
	if err != nil {
		return nil, err
	}
	stride, ok := longitudinal.ColumnarStrideOf(proto)
	if !ok {
		return nil, fmt.Errorf("%s has no columnar tallier", spec.Family)
	}
	in := &inputs{
		spec:    spec,
		proto:   proto,
		ds:      datasets.Syn(datasets.SynConfig{K: spec.K, N: users, Tau: rounds, Seed: seed}),
		seed:    seed,
		clients: make([]longitudinal.AppendReporter, users),
		stride:  stride,
		hash:    longitudinal.SpecHashOf(proto),
	}
	in.freshClients()
	return in, nil
}

// freshClients replaces every client with a new one seeded like
// server.WithCohort(n, seed), so the next rounds from round 0 reproduce
// every report an earlier instance or a replay sent.
func (in *inputs) freshClients() {
	for u := range in.clients {
		in.clients[u] = in.proto.NewClient(randsrc.Derive(in.seed, uint64(u))).(longitudinal.AppendReporter)
	}
}

func (in *inputs) users() int { return len(in.clients) }

// values returns every user's value in round r.
func (in *inputs) values(r int) []int { return in.ds.Round(r) }

// truth returns round r's true frequencies over the protocol's estimate
// domain (buckets for dBitFlipPM).
func (in *inputs) truth(r int) []float64 {
	f := domain.TrueFrequencies(in.values(r), in.spec.K)
	if z, ok := in.proto.(interface{ Bucketizer() domain.Bucketizer }); ok {
		return z.Bucketizer().FoldFrequencies(f)
	}
	return f
}

// span is a contiguous block of users [lo, hi) sent as one batch to one
// ingesting daemon over one data connection.
type span struct{ leaf, conn, lo, hi int }

// planBatches cuts users into per-leaf contiguous blocks and each block
// into batches of at most size users. Batches of a single daemon alternate
// over its conns connections; in a tree each leaf has its own connection.
func planBatches(users, leaves, conns, size int) []span {
	var out []span
	for l := 0; l < leaves; l++ {
		lo, hi := l*users/leaves, (l+1)*users/leaves
		for i := 0; lo < hi; i++ {
			end := min(lo+size, hi)
			conn := i % conns
			if leaves > 1 {
				conn = l
			}
			out = append(out, span{leaf: l, conn: conn, lo: lo, hi: end})
			lo = end
		}
	}
	return out
}

// encoder turns one batch of reports into an LCB1 columnar batch. It
// keeps the two client-side steps apart so each can be timed on its own.
type encoder struct {
	in       *inputs
	w        *longitudinal.ColumnarWriter
	lo       int
	payloads []byte // the batch's payloads, stride bytes per user
}

func (in *inputs) newEncoder() *encoder {
	w, err := longitudinal.NewColumnarWriter(in.hash, in.stride)
	if err != nil {
		panic(err) // stride came from the protocol's own tallier
	}
	return &encoder{in: in, w: w}
}

// generate advances users [lo, hi) through round r with AppendReport.
func (e *encoder) generate(r, lo, hi int) {
	vals := e.in.values(r)
	e.lo = lo
	e.payloads = e.payloads[:0]
	for u := lo; u < hi; u++ {
		e.payloads = e.in.clients[u].AppendReport(e.payloads, vals[u])
	}
}

// encode appends the columnar batch of the reports generate produced.
func (e *encoder) encode(dst []byte) []byte {
	e.w.Reset()
	for i := 0; i*e.in.stride < len(e.payloads); i++ {
		if err := e.w.Add(e.lo+i, e.payloads[i*e.in.stride:(i+1)*e.in.stride]); err != nil {
			panic(err) // the client's own payload always has the stride
		}
	}
	return e.w.AppendTo(dst)
}

// round generates and encodes every batch of round r; bufs is reused.
func (e *encoder) round(r int, plan []span, bufs [][]byte) [][]byte {
	if len(bufs) < len(plan) {
		bufs = make([][]byte, len(plan))
	}
	for i, s := range plan {
		e.generate(r, s.lo, s.hi)
		bufs[i] = e.encode(bufs[i][:0])
	}
	return bufs[:len(plan)]
}
