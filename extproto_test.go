// An out-of-package protocol plugged into Stream: a protocol is one
// Protocol/Client/Aggregator contract, checked by the compiler, so a
// protocol defined entirely outside the library — here a noise-free
// histogram protocol in this external test package — round-trips through
// the wire service end to end, sharded like any built-in.
package loloha_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// histProto is a trivial "protocol": clients report their value verbatim
// (no privacy — it exists to exercise the wire plumbing, not the
// estimators).
type histProto struct {
	k    int
	name string
}

func (p *histProto) Name() string          { return p.name }
func (p *histProto) K() int                { return p.k }
func (p *histProto) SteadyReportBits() int { return 8 }

func (p *histProto) NewClient(seed uint64) loloha.Client { return &histClient{k: p.k} }
func (p *histProto) NewAggregator() loloha.Aggregator {
	return &histAgg{k: p.k, Tally: loloha.NewTally(p.k)}
}

// Spec implements loloha.Protocol.
func (p *histProto) Spec() loloha.ProtocolSpec { return loloha.ProtocolSpec{Family: p.name, K: p.k} }

// WireTallier implements loloha.Protocol.
func (p *histProto) WireTallier() loloha.ColumnarTallier { return histTallier{k: p.k} }

func newExternalProtocol(k int) loloha.Protocol { return &histProto{k: k, name: "ext-hist"} }

type histClient struct{ k int }

func (c *histClient) AppendReport(dst []byte, v int) []byte { return append(dst, byte(v)) }
func (c *histClient) WireRegistration() loloha.Registration { return loloha.Registration{} }
func (c *histClient) Charge(v int)                          {}
func (c *histClient) PrivacySpent() float64                 { return math.Inf(1) } // no privacy at all

// histTallier tallies one-byte payloads into a histAgg.
type histTallier struct{ k int }

func (histTallier) PayloadStride() int { return 1 }

func (t histTallier) TallyCell(agg loloha.Aggregator, _ int, cell []byte, _ loloha.Registration) error {
	a, ok := agg.(*histAgg)
	if !ok {
		return fmt.Errorf("ext-hist: cannot tally into %T", agg)
	}
	v := int(cell[0])
	if v >= t.k {
		return fmt.Errorf("ext-hist: value %d outside [0,%d)", v, t.k)
	}
	a.AddIndex(v)
	a.N++
	return nil
}

// histAgg embeds the library's round state, which brings the snapshot
// half of the contract (ExportTally/ImportTally) and the body of Merge
// (Absorb) with it.
type histAgg struct {
	loloha.Tally
	k int
}

func (a *histAgg) Fork() loloha.Aggregator       { return &histAgg{k: a.k, Tally: loloha.NewTally(a.k)} }
func (a *histAgg) Merge(other loloha.Aggregator) { a.Absorb(&other.(*histAgg).Tally) }
func (a *histAgg) EstimateDomain() int           { return a.k }
func (a *histAgg) EndRound() []float64 {
	defer a.Reset()
	est := make([]float64, a.k)
	if a.N > 0 {
		for v, c := range a.Counts() {
			est[v] = float64(c) / float64(a.N)
		}
	}
	return est
}

func runExternalProtocol(t *testing.T, proto loloha.Protocol, opts ...loloha.StreamOption) {
	t.Helper()
	const n = 64
	stream, err := loloha.NewStream(proto, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sub := stream.Subscribe()
	userIDs := make([]int, n)
	payloads := make([][]byte, n)
	for u := 0; u < n; u++ {
		if err := stream.Enroll(u, loloha.Registration{}); err != nil {
			t.Fatal(err)
		}
		userIDs[u] = u
		payloads[u] = proto.NewClient(0).AppendReport(nil, u%4)
	}
	if err := stream.IngestBatch(userIDs, payloads); err != nil {
		t.Fatal(err)
	}
	stream.CloseRound()
	res := <-sub
	for v := 0; v < 4; v++ {
		if math.Abs(res.Estimates[v]-0.25) > 1e-12 {
			t.Fatalf("est[%d] = %v, want 0.25 exactly (protocol is noise-free)", v, res.Estimates[v])
		}
	}
	if err := stream.Ingest(0, []byte{0xFF}); err == nil {
		t.Fatal("out-of-domain external payload accepted")
	}
	if err := stream.Ingest(1, []byte{0x01, 0x02}); err == nil {
		t.Fatal("over-length external payload accepted")
	}
}

func TestExternalWireProtocolRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		runExternalProtocol(t, newExternalProtocol(10), loloha.WithShards(shards))
	}
}

func TestSpecExternalFamilyRegistry(t *testing.T) {
	// One RegisterFamily call makes an out-of-repository protocol
	// constructible from a declarative ProtocolSpec; the built protocol
	// carries its own tallier, so it streams like any built-in.
	const fam = "ext-hist-family"
	loloha.RegisterFamily(fam, loloha.FamilyInfo{
		Doc:      "noise-free histogram (test-only)",
		Required: []loloha.SpecField{loloha.SpecFieldK},
		Build: func(s loloha.ProtocolSpec) (loloha.Protocol, error) {
			return &histProto{k: s.K, name: fam}, nil
		},
	})
	defer loloha.RegisterFamily(fam, loloha.FamilyInfo{}) // zero info unregisters

	if reg := loloha.Families(); !slices.Contains(reg, fam) {
		t.Fatalf("registered family %q missing from Families() = %v", fam, reg)
	}
	proto, err := loloha.ProtocolSpec{Family: fam, K: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	runExternalProtocol(t, proto)
	// The built protocol describes itself with the spec it was built from.
	if got, want := proto.Spec(), (loloha.ProtocolSpec{Family: fam, K: 10}); got != want {
		t.Errorf("built protocol's spec %+v, want %+v", got, want)
	}
}
