// An out-of-package protocol plugged into Stream: ingestion has one open
// contract (TallyProtocol: PayloadStride + TallyCell), so a protocol
// defined entirely outside the library — here a noise-free histogram
// protocol in this external test package — round-trips through the wire
// service end to end, and one that lacks the contract is rejected at
// construction with an error naming it.
package loloha_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// histBase is a trivial "protocol": clients report their value verbatim
// (no privacy — it exists to exercise the wire plumbing, not the
// estimators). It deliberately does NOT implement loloha.TallyProtocol,
// so a Stream cannot ingest it.
type histBase struct {
	k    int
	name string
}

func (p *histBase) Name() string          { return p.name }
func (p *histBase) K() int                { return p.k }
func (p *histBase) SteadyReportBits() int { return 8 }

func (p *histBase) NewClient(seed uint64) loloha.Client { return &histClient{k: p.k} }
func (p *histBase) NewAggregator() loloha.Aggregator {
	return &histAgg{k: p.k, Tally: loloha.NewTally(p.k)}
}

// histProto adds WireTallier, making the protocol streamable.
type histProto struct{ histBase }

// WireTallier implements loloha.TallyProtocol.
func (p *histProto) WireTallier() loloha.ColumnarTallier { return histTallier{k: p.k} }

func newExternalProtocol(k int, tallied bool) loloha.Protocol {
	if tallied {
		return &histProto{histBase{k: k, name: "ext-hist"}}
	}
	return &histBase{k: k, name: "ext-hist-untallied"}
}

// Statically assert which variant satisfies the interface.
var (
	_ loloha.TallyProtocol = (*histProto)(nil)
	_ loloha.Protocol      = (*histBase)(nil)
)

type histClient struct{ k int }

func (c *histClient) Report(v int) loloha.Report { return histReport{v: v} }
func (c *histClient) Charge(v int)               {}
func (c *histClient) PrivacySpent() float64      { return math.Inf(1) } // no privacy at all

type histReport struct{ v int }

func (r histReport) AppendBinary(dst []byte) []byte { return append(dst, byte(r.v)) }

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
// contract (ExportTally/ImportTally) with it.
type histAgg struct {
	loloha.Tally
	k int
}

func (a *histAgg) Add(userID int, rep loloha.Report) { a.AddIndex(rep.(histReport).v); a.N++ }
func (a *histAgg) EstimateDomain() int               { return a.k }
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

// (histAgg is deliberately NOT mergeable: the stream must degrade to a
// single shard and still work.)

func runExternalProtocol(t *testing.T, proto loloha.Protocol, opts ...loloha.StreamOption) {
	t.Helper()
	const n = 64
	stream, err := loloha.NewStream(proto, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := stream.Shards(); got != 1 {
		t.Fatalf("non-mergeable external aggregator got %d shards, want serial fallback", got)
	}
	sub := stream.Subscribe()
	userIDs := make([]int, n)
	payloads := make([][]byte, n)
	for u := 0; u < n; u++ {
		if err := stream.Enroll(u, loloha.Registration{}); err != nil {
			t.Fatal(err)
		}
		userIDs[u] = u
		payloads[u] = proto.NewClient(0).Report(u % 4).AppendBinary(nil)
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
	runExternalProtocol(t, newExternalProtocol(10, true))
}

// TestExternalProtocolWithoutTallierRejected: NewStream refuses a
// protocol without the tally contract, and the error names the contract
// the protocol is missing.
func TestExternalProtocolWithoutTallierRejected(t *testing.T) {
	_, err := loloha.NewStream(newExternalProtocol(10, false))
	if err == nil {
		t.Fatal("protocol without a tallier accepted")
	}
	if !strings.Contains(err.Error(), "TallyProtocol") {
		t.Fatalf("error %q does not name the missing TallyProtocol contract", err)
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
			return &histProto{histBase{k: s.K, name: fam}}, nil
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
	// histProto does not implement SpecProtocol; SpecOf reports that
	// honestly instead of inventing a description.
	if _, ok := loloha.SpecOf(proto); ok {
		t.Error("SpecOf invented a spec for a protocol without Spec()")
	}
}
