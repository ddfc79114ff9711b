package longitudinal

// Names kept only for the benchmark module under bench/, which is the
// yardstick for changes to this package and so does not move with them.
// Every one is a plain alias or a one-line wrapper of the contracts in
// longitudinal.go; nothing outside bench/ may use them, and a separate
// benchmark change removes this file.

// MergeableAggregator is Aggregator, which now includes Fork and Merge.
type MergeableAggregator = Aggregator

// TallyProtocol is Protocol, which now includes WireTallier.
type TallyProtocol = Protocol

// AppendReporter is Client, which now includes AppendReport.
type AppendReporter = Client

// ColumnarStrideOf returns p.WireTallier().PayloadStride(), true.
func ColumnarStrideOf(p Protocol) (int, bool) { return p.WireTallier().PayloadStride(), true }

// SpecHashOf returns p.Spec().Hash().
func SpecHashOf(p Protocol) uint64 { return p.Spec().Hash() }
