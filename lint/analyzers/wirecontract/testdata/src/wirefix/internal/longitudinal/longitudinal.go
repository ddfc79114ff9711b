// Package longitudinal exercises the wirecontract analyzer with a
// miniature replica of the registry surface.
package longitudinal

type ProtocolSpec struct{ Name string }

type Protocol interface{ K() int }

type SpecProtocol interface {
	Protocol
	Spec() ProtocolSpec
}

type ColumnarTallier interface {
	PayloadStride() int
	TallyCell(cell []byte) error
}

type TallyProtocol interface{ WireTallier() ColumnarTallier }

type AppendReporter interface{ AppendReport([]byte, int) []byte }

type Aggregator interface{ EndRound() []float64 }

// SnapshotTallier is the durability contract: aggregators that can
// export and re-import their tally state for snapshots and merges.
type SnapshotTallier interface {
	ExportTally(dst []int64) ([]int64, int)
	ImportTally(counts []int64, n int) error
}

// Tally is the shared round state whose methods give every embedding
// aggregator the durability contract.
type Tally struct{}

func (*Tally) ExportTally(dst []int64) ([]int64, int)  { return dst, 0 }
func (*Tally) ImportTally(counts []int64, n int) error { return nil }

type FamilyInfo struct {
	Build func(ProtocolSpec) (Protocol, error)
}

func RegisterFamily(name string, info FamilyInfo) {}

type tallier struct{}

func (tallier) PayloadStride() int          { return 1 }
func (tallier) TallyCell(cell []byte) error { return nil }

// good is the fully asserted family.
type good struct{}

func (*good) K() int                       { return 2 }
func (*good) Spec() ProtocolSpec           { return ProtocolSpec{Name: "good"} }
func (*good) WireTallier() ColumnarTallier { return tallier{} }

func (p *good) NewClient(seed uint64) *goodClient { return &goodClient{} }
func (p *good) NewAggregator() Aggregator         { return &goodAgg{} }

type goodClient struct{}

func (*goodClient) AppendReport(dst []byte, v int) []byte { return dst }

// goodAgg carries the full durability contract.
type goodAgg struct{ Tally }

func (*goodAgg) EndRound() []float64 { return nil }

var (
	_ SpecProtocol    = (*good)(nil)
	_ TallyProtocol   = (*good)(nil)
	_ AppendReporter  = (*goodClient)(nil)
	_ SnapshotTallier = (*goodAgg)(nil)
)

// missing implements the contracts but forgot its assertions.
type missing struct{}

func (*missing) K() int                       { return 2 }
func (*missing) Spec() ProtocolSpec           { return ProtocolSpec{Name: "missing"} }
func (*missing) WireTallier() ColumnarTallier { return tallier{} }

// untallied has no tallier: a Stream cannot ingest it.
type untallied struct{}

func (*untallied) K() int             { return 2 }
func (*untallied) Spec() ProtocolSpec { return ProtocolSpec{Name: "untallied"} }

// markedUntallied is untallied behind a //loloha:boxed marker, which does
// not excuse it.
type markedUntallied struct{ untallied }

var (
	_ SpecProtocol = (*untallied)(nil)
	_ SpecProtocol = (*markedUntallied)(nil)
)

// boxedClient reports only through the boxed Report path, unmarked.
type boxedClient struct{}

type boxedReporter struct{}

func (*boxedReporter) K() int                       { return 2 }
func (*boxedReporter) Spec() ProtocolSpec           { return ProtocolSpec{Name: "boxedReporter"} }
func (*boxedReporter) WireTallier() ColumnarTallier { return tallier{} }

func (p *boxedReporter) NewClient(seed uint64) *boxedClient { return &boxedClient{} }

var (
	_ SpecProtocol  = (*boxedReporter)(nil)
	_ TallyProtocol = (*boxedReporter)(nil)
)

// snapNoAgg tallies but cannot export its counts: the family cannot take
// part in snapshots or collector-tree merges.
type snapNoAgg struct{}

func (*snapNoAgg) EndRound() []float64 { return nil }

type snapNo struct{}

func (*snapNo) K() int                       { return 2 }
func (*snapNo) Spec() ProtocolSpec           { return ProtocolSpec{Name: "snapNo"} }
func (*snapNo) WireTallier() ColumnarTallier { return tallier{} }
func (*snapNo) NewAggregator() Aggregator    { return &snapNoAgg{} }

var (
	_ SpecProtocol  = (*snapNo)(nil)
	_ TallyProtocol = (*snapNo)(nil)
)

// snapMissingAgg implements the durability contract but forgot the
// assertion that keeps it implemented.
type snapMissingAgg struct{ Tally }

func (*snapMissingAgg) EndRound() []float64 { return nil }

type snapMissing struct{}

func (*snapMissing) K() int                       { return 2 }
func (*snapMissing) Spec() ProtocolSpec           { return ProtocolSpec{Name: "snapMissing"} }
func (*snapMissing) WireTallier() ColumnarTallier { return tallier{} }
func (*snapMissing) NewAggregator() Aggregator    { return &snapMissingAgg{} }

var (
	_ SpecProtocol  = (*snapMissing)(nil)
	_ TallyProtocol = (*snapMissing)(nil)
)

func init() {
	RegisterFamily("good", FamilyInfo{ // ok: implemented and asserted
		Build: func(s ProtocolSpec) (Protocol, error) { return &good{}, nil },
	})
	RegisterFamily("missing", FamilyInfo{ // want "var _ SpecProtocol" "var _ TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &missing{}, nil },
	})
	RegisterFamily("untallied", FamilyInfo{ // want "does not implement TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &untallied{}, nil },
	})
	//loloha:boxed the marker cannot excuse a family no Stream can ingest
	RegisterFamily("untalliedMarked", FamilyInfo{ // want "does not implement TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &markedUntallied{}, nil },
	})
	RegisterFamily("boxedReporter", FamilyInfo{ // want "does not implement AppendReporter"
		Build: func(s ProtocolSpec) (Protocol, error) { return &boxedReporter{}, nil },
	})
	RegisterFamily("snapNo", FamilyInfo{ // want "does not implement SnapshotTallier"
		Build: func(s ProtocolSpec) (Protocol, error) { return &snapNo{}, nil },
	})
	RegisterFamily("snapMissing", FamilyInfo{ // want "var _ SnapshotTallier"
		Build: func(s ProtocolSpec) (Protocol, error) { return &snapMissing{}, nil },
	})
}
