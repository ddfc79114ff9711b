package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// goldenEstimateDigests pins, per registered family, an FNV-1a 64 digest
// of every published round (report count plus the bits of each Raw
// estimate) of a small evolving cohort at fixed seeds. Every ingestion
// path below — per-report, batch, columnar, cohort Collect, a two-leaf
// collector tree and a mid-round snapshot/restore — must reproduce the
// same digest: the paths tally the same integer counts, so a refactor of
// any of them that changes one estimate bit moves a digest.
var goldenEstimateDigests = map[string]uint64{
	"1BitFlipPM": 0x37da00227f7fe360,
	"BiLOLOHA":   0x4eaa832d4913174f,
	"L-GRR":      0xced84ae37b5da7e8,
	"L-OSUE":     0xe9b4dd47902fc36c,
	"L-OUE":      0x89ff33b7de04c14f,
	"L-SOUE":     0x591047ee747379f7,
	"LOLOHA":     0x4eaa832d4913174f,
	"OLOLOHA":    0x190f690161446ef5,
	"RAPPOR":     0xf7fa639ff192d705,
	"bBitFlipPM": 0xea1822fa56824dad,
	"dBitFlipPM": 0xfe73d04cc0d3de1f,
}

const (
	goldenK      = 24
	goldenUsers  = 64
	goldenRounds = 3
	goldenSeed   = 2023
)

// goldenValue is user u's value in round r: it drifts every round so the
// memoized (PRR) state of every client grows across the run.
func goldenValue(u, r int) int { return (u*7 + r*5 + u*r) % goldenK }

// goldenRun is one path's view of the cohort: the clients that produce
// its wire payloads and the digest of the rounds it has published.
type goldenRun struct {
	t       *testing.T
	proto   longitudinal.Protocol
	clients []longitudinal.AppendReporter
	h       hash.Hash64
}

func newGoldenRun(t *testing.T, proto longitudinal.Protocol) *goldenRun {
	g := &goldenRun{t: t, proto: proto, clients: make([]longitudinal.AppendReporter, goldenUsers), h: fnv.New64a()}
	for u := range g.clients {
		// The same seeds WithCohort(goldenUsers, goldenSeed) uses, so the
		// wire paths and the cohort path collect the same reports.
		g.clients[u] = proto.NewClient(randsrc.Derive(goldenSeed, uint64(u))).(longitudinal.AppendReporter)
	}
	return g
}

// payloads advances every client one round and returns its payloads.
func (g *goldenRun) payloads(r int) [][]byte {
	out := make([][]byte, goldenUsers)
	for u, cl := range g.clients {
		out[u] = cl.AppendReport(nil, goldenValue(u, r))
	}
	return out
}

func (g *goldenRun) publish(res RoundResult) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(res.Reports))
	g.h.Write(b[:])
	for _, e := range res.Raw {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e))
		g.h.Write(b[:])
	}
}

func (g *goldenRun) stream(opts ...Option) *Stream {
	g.t.Helper()
	s, err := NewStream(g.proto, opts...)
	if err != nil {
		g.t.Fatal(err)
	}
	return s
}

func (g *goldenRun) enroll(s *Stream, users func(u int) bool) {
	g.t.Helper()
	for u, cl := range g.clients {
		if users(u) {
			if err := s.Enroll(u, cl.WireRegistration()); err != nil {
				g.t.Fatal(err)
			}
		}
	}
}

func all(int) bool { return true }

func (g *goldenRun) check(err error) {
	g.t.Helper()
	if err != nil {
		g.t.Fatal(err)
	}
}

// goldenPaths runs the cohort through each ingestion path and returns
// the digest each one publishes.
func goldenPaths(t *testing.T, proto longitudinal.Protocol) map[string]uint64 {
	out := map[string]uint64{}

	g := newGoldenRun(t, proto)
	s := g.stream(WithShards(2))
	g.enroll(s, all)
	for r := 0; r < goldenRounds; r++ {
		for u, p := range g.payloads(r) {
			g.check(s.Ingest(u, p))
		}
		g.publish(s.CloseRound())
	}
	out["ingest"] = g.h.Sum64()

	g = newGoldenRun(t, proto)
	s = g.stream(WithShards(3))
	g.enroll(s, all)
	ids := make([]int, goldenUsers)
	for u := range ids {
		ids[u] = u
	}
	for r := 0; r < goldenRounds; r++ {
		g.check(s.IngestBatch(ids, g.payloads(r)))
		g.publish(s.CloseRound())
	}
	out["batch"] = g.h.Sum64()

	// Columnar: round 0 enrolls through the registration columns.
	g = newGoldenRun(t, proto)
	s = g.stream(WithShards(2))
	stride, ok := longitudinal.ColumnarStrideOf(proto)
	if !ok {
		t.Fatal("protocol has no columnar stride")
	}
	d := len(g.clients[0].WireRegistration().Sampled)
	for r := 0; r < goldenRounds; r++ {
		w, err := longitudinal.NewColumnarWriter(longitudinal.SpecHashOf(proto), stride)
		g.check(err)
		if r == 0 {
			g.check(w.WithRegistrations(d))
		}
		for u, p := range g.payloads(r) {
			if r == 0 {
				g.check(w.AddWithRegistration(u, p, g.clients[u].WireRegistration()))
			} else {
				g.check(w.Add(u, p))
			}
		}
		var batch longitudinal.ColumnarBatch
		g.check(longitudinal.DecodeColumnar(w.AppendTo(nil), &batch))
		g.check(s.IngestColumnar(&batch))
		g.publish(s.CloseRound())
	}
	out["columnar"] = g.h.Sum64()

	g = newGoldenRun(t, proto)
	s = g.stream(WithCohort(goldenUsers, goldenSeed), WithShards(2))
	for r := 0; r < goldenRounds; r++ {
		vals := make([]int, goldenUsers)
		for u := range vals {
			vals[u] = goldenValue(u, r)
		}
		res, err := s.Collect(vals)
		g.check(err)
		g.publish(res)
	}
	out["collect"] = g.h.Sum64()

	// Two-leaf tree: each leaf ships its round as an LME1 envelope and
	// the root publishes the merged estimates.
	g = newGoldenRun(t, proto)
	root := g.stream(WithShards(2))
	leaves := []*Stream{g.stream(WithShards(1)), g.stream(WithShards(2))}
	for i, leaf := range leaves {
		g.enroll(leaf, func(u int) bool { return u%2 == i })
	}
	for r := 0; r < goldenRounds; r++ {
		for u, p := range g.payloads(r) {
			g.check(leaves[u%2].Ingest(u, p))
		}
		for i, leaf := range leaves {
			env, _ := exportEnvelope(t, leaf, fmt.Sprintf("leaf-%d", i), uint64(r+1))
			if _, dup, err := root.MergeEnvelope(env); err != nil || dup {
				t.Fatalf("round %d leaf %d: merge dup=%v err=%v", r, i, dup, err)
			}
		}
		g.publish(root.CloseRound())
	}
	out["tree"] = g.h.Sum64()

	// Restore: every round snapshots halfway through ingestion and the
	// rest of the round lands on a stream restored onto a new shard count.
	g = newGoldenRun(t, proto)
	s = g.stream(WithShards(2))
	g.enroll(s, all)
	for r := 0; r < goldenRounds; r++ {
		payloads := g.payloads(r)
		for u := 0; u < goldenUsers/2; u++ {
			g.check(s.Ingest(u, payloads[u]))
		}
		var buf bytes.Buffer
		g.check(s.Snapshot(&buf))
		var err error
		s, err = RestoreStream(&buf, proto, WithShards(1+r%3))
		g.check(err)
		for u := goldenUsers / 2; u < goldenUsers; u++ {
			g.check(s.Ingest(u, payloads[u]))
		}
		g.publish(s.CloseRound())
	}
	out["restore"] = g.h.Sum64()
	return out
}

// TestGoldenEstimateDigests: estimates at fixed seeds are frozen for every
// registered family on every ingestion path.
func TestGoldenEstimateDigests(t *testing.T) {
	families := longitudinal.Families()
	for _, family := range families {
		t.Run(family, func(t *testing.T) {
			proto, err := columnarSpec(t, family, goldenK).Build()
			if err != nil {
				t.Fatal(err)
			}
			want, ok := goldenEstimateDigests[family]
			if !ok {
				t.Errorf("no golden digest recorded for family %q", family)
			}
			for path, got := range goldenPaths(t, proto) {
				if got != want {
					t.Errorf("%s path: estimate digest %#x, golden %#x", path, got, want)
				}
			}
		})
	}
	if len(families) != len(goldenEstimateDigests) {
		t.Errorf("%d registered families, golden table has %d", len(families), len(goldenEstimateDigests))
	}
}
