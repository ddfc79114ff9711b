// Package simulation is the experiment harness that regenerates the
// paper's empirical results: the MSE_avg of Eq. (7) over τ collections
// (Fig. 3), the averaged longitudinal privacy loss ε̌_avg of Eq. (8)
// (Fig. 4) and the dBitFlipPM change-detection rates (Table 2).
//
// Experiments are grids over (protocol, ε∞, α, run); every grid cell is an
// independent job with a deterministic seed derived from (cell coordinates,
// experiment seed), so results are reproducible regardless of scheduling.
package simulation

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/loloha-ldp/loloha/internal/attack"
	// The blank core import links the LOLOHA families into the protocol
	// family registry; every spec here builds through that registry.
	_ "github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/postprocess"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/server"
)

// Spec names a protocol of the experiment grid. It is declarative: Proto is
// a longitudinal.ProtocolSpec template whose budget fields the grid fills
// per cell and resolves through the protocol family registry — no
// per-family constructor closures. Any family registered with
// longitudinal.RegisterFamily (including external ones) is usable here.
type Spec struct {
	// Name labels the grid rows; defaults matter only for presentation.
	Name string
	// Proto is the declarative template: family plus fixed shape parameters
	// (k, g, b, d). A zero K is filled with the grid's domain size; the
	// budget fields (EpsInf, and Eps1 where the family takes it) are
	// overwritten per grid cell.
	Proto longitudinal.ProtocolSpec
	// BuildFunc, when non-nil, overrides registry-driven construction —
	// the escape hatch for injecting pre-built protocols (ablations).
	BuildFunc func(k int, epsInf, eps1 float64) (longitudinal.Protocol, error)
}

// Build constructs the spec's protocol for domain size k at (ε∞, ε1). With
// a declarative template the budget pair is written into the template (ε1
// only for families that take it, so dBitFlipPM grids ignore α exactly as
// the paper does) and the family registry builds the protocol.
func (s Spec) Build(k int, epsInf, eps1 float64) (longitudinal.Protocol, error) {
	if s.BuildFunc != nil {
		return s.BuildFunc(k, epsInf, eps1)
	}
	ps := s.Proto
	if ps.K == 0 {
		ps.K = k
	} else if k != 0 && ps.K != k {
		return nil, fmt.Errorf("simulation: spec %s pins k=%d but the grid runs at k=%d", s.Name, ps.K, k)
	}
	ps.EpsInf, ps.Eps1 = epsInf, eps1
	// Budget fields the family does not consume stay zero (dBitFlipPM has
	// no ε1; a budget-free external family takes neither). Unknown families
	// keep both so Build surfaces its registry error with the caller's
	// full intent.
	if info, ok := longitudinal.LookupFamily(ps.Family); ok {
		if !info.Uses(longitudinal.FieldEpsInf) {
			ps.EpsInf = 0
		}
		if !info.Uses(longitudinal.FieldEps1) {
			ps.Eps1 = 0
		}
	}
	return ps.Build()
}

// StandardSpecs returns the §5.1 evaluated methods for a dataset with
// domain size k: RAPPOR, L-OSUE, L-GRR, BiLOLOHA, OLOLOHA, 1BitFlipPM and
// bBitFlipPM. Following the paper, the dBitFlipPM bucket count is b = k
// for the small-domain datasets (syn, adult) and b = ⌊k/4⌋ for the
// folktables datasets (db_mt, db_de); domains too small to quarter
// (⌊k/4⌋ < 2) fall back to b = k rather than building an invalid
// bucketizer.
func StandardSpecs(datasetName string, k int) []Spec {
	b := k
	if datasetName == "db_mt" || datasetName == "db_de" {
		b = k / 4
		if b < 2 {
			b = k
		}
	}
	spec := func(name, family string) Spec {
		return Spec{Name: name, Proto: longitudinal.ProtocolSpec{Family: family, K: k}}
	}
	dbit := func(name string, d int) Spec {
		return Spec{Name: name, Proto: longitudinal.ProtocolSpec{Family: "dBitFlipPM", K: k, B: b, D: d}}
	}
	return []Spec{
		spec("RAPPOR", "RAPPOR"),
		spec("L-OSUE", "L-OSUE"),
		spec("L-GRR", "L-GRR"),
		spec("BiLOLOHA", "BiLOLOHA"),
		spec("OLOLOHA", "OLOLOHA"),
		dbit("1BitFlipPM", 1),
		dbit("bBitFlipPM", b),
	}
}

// StandardSpecNames returns the names of the §5.1 evaluated methods, in
// presentation order.
func StandardSpecNames() []string {
	specs := StandardSpecs("syn", 8)
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// SpecByName returns the standard spec with the given name; an unknown name
// errors with the full list of available protocol names.
func SpecByName(datasetName string, k int, name string) (Spec, error) {
	for _, s := range StandardSpecs(datasetName, k) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("simulation: unknown protocol %q (available: %s)",
		name, strings.Join(StandardSpecNames(), ", "))
}

// Config parameterizes an experiment grid.
type Config struct {
	// EpsInfs is the ε∞ grid (paper: 0.5..5 in steps of 0.5).
	EpsInfs []float64
	// Alphas is the α = ε1/ε∞ grid (paper Fig. 3/4: 0.4, 0.5, 0.6).
	Alphas []float64
	// Runs is the number of repetitions per point (paper: 20).
	Runs int
	// Seed derives all per-cell seeds.
	Seed uint64
	// Workers bounds concurrent cells; 0 means GOMAXPROCS.
	Workers int
	// Shards is the intra-collection parallelism: each round's cohort is
	// collected on a server.Stream with this many shards, each reporting
	// and tallying a contiguous block of users on its own goroutine (see
	// server.Stream.Collect). 0 or 1 keeps rounds serial, which is usually
	// right when the grid itself saturates the CPUs; estimates are
	// bit-identical either way. Negative counts are rejected by validate.
	Shards int
	// PostProcess transforms each round's estimates before scoring MSE
	// (extension; the paper's setting is postprocess.None).
	PostProcess postprocess.Method
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) validate() error {
	if len(c.EpsInfs) == 0 || len(c.Alphas) == 0 {
		return fmt.Errorf("simulation: empty eps/alpha grid")
	}
	if c.Runs < 1 {
		return fmt.Errorf("simulation: Runs must be >= 1, got %d", c.Runs)
	}
	if c.Shards < 0 {
		return fmt.Errorf("simulation: Shards must be >= 0, got %d", c.Shards)
	}
	if c.Workers < 0 {
		return fmt.Errorf("simulation: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// Point is one measured grid point.
type Point struct {
	Dataset  string
	Protocol string
	EpsInf   float64
	Alpha    float64
	// Mean and Std summarize the metric over runs (MSE_avg for Fig. 3,
	// ε̌_avg for Fig. 4, fully-detected rate for Table 2).
	Mean, Std float64
	Runs      int
	// Err carries a build failure (e.g. infeasible calibration); such
	// points hold no measurement.
	Err error
}

// ---------------------------------------------------------------------------
// Fig. 3: averaged MSE.

// RunMSE measures MSE_avg (Eq. (7)) for every (spec, ε∞, α) grid point.
// For bucket-domain protocols (dBitFlipPM with b < k) the ground truth is
// folded into buckets before scoring, which is only comparable to k-bin
// results when b == k — the caller decides whether to include them, as the
// paper does.
func RunMSE(ds *datasets.Dataset, specs []Spec, cfg Config) ([]Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	truth := make([][]float64, ds.Tau())
	for t := range truth {
		truth[t] = ds.TrueFrequencies(t)
	}
	return runGrid(ds, specs, cfg, func(proto longitudinal.Protocol, seed uint64) float64 {
		return mseRun(ds, truth, proto, seed, cfg.PostProcess, cfg.Shards)
	})
}

// mseRun executes one full τ-round collection and returns MSE_avg.
func mseRun(ds *datasets.Dataset, truth [][]float64, proto longitudinal.Protocol, seed uint64,
	pp postprocess.Method, shards int) float64 {
	stream := newCohortStream(proto, ds.N(), seed, shards, server.WithPostProcess(pp))

	// Bucket-domain protocols score against folded truth.
	fold := func(f []float64) []float64 { return f }
	if d, ok := proto.(*longitudinal.DBitFlipPM); ok && d.B() != ds.K {
		fold = d.Bucketizer().FoldFrequencies
	}

	tau := ds.Tau()
	total := 0.0
	for t := 0; t < tau; t++ {
		est := collect(stream, ds.Round(t)).Estimates
		ft := fold(truth[t])
		sum := 0.0
		for v := range est {
			d := est[v] - ft[v]
			sum += d * d
		}
		total += sum / float64(len(est))
	}
	return total / float64(tau)
}

// newCohortStream returns a stream with n attached clients, client u
// seeded randsrc.Derive(seed, u), whose rounds collect on
// max(shards, 1) shards through the protocol's allocation-free wire path
// (AppendReport + TallyCell): the grid's millions of simulated reports
// generate and tally without a wire-buffer allocation per report.
func newCohortStream(proto longitudinal.Protocol, n int, seed uint64, shards int, opts ...server.Option) *server.Stream {
	opts = append(opts, server.WithCohort(n, seed), server.WithShards(max(shards, 1)))
	stream, err := server.NewStream(proto, opts...)
	if err != nil {
		panic(err) // impossible: a dataset has users and shards is at least 1
	}
	return stream
}

// collect runs one cohort round of values.
func collect(stream *server.Stream, values []int) server.RoundResult {
	res, err := stream.Collect(values)
	if err != nil {
		panic(err) // impossible: dataset rounds hold n in-domain values
	}
	return res
}

// ---------------------------------------------------------------------------
// Fig. 4: averaged longitudinal privacy loss.

// RunPrivacyLoss measures ε̌_avg (Eq. (8)): each client replays its value
// sequence through the privacy ledger and the losses are averaged over the
// cohort.
func RunPrivacyLoss(ds *datasets.Dataset, specs []Spec, cfg Config) ([]Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runGrid(ds, specs, cfg, func(proto longitudinal.Protocol, seed uint64) float64 {
		return privacyLossRun(ds, proto, seed)
	})
}

func privacyLossRun(ds *datasets.Dataset, proto longitudinal.Protocol, seed uint64) float64 {
	n, tau := ds.N(), ds.Tau()
	total := 0.0
	for u := 0; u < n; u++ {
		cl := proto.NewClient(randsrc.Derive(seed, uint64(u)))
		for t := 0; t < tau; t++ {
			cl.Charge(ds.Value(u, t))
		}
		total += cl.PrivacySpent()
	}
	return total / float64(n)
}

// ---------------------------------------------------------------------------
// Table 2: dBitFlipPM change detection.

// RunDetection measures the fully-detected-users rate of the Table 2
// adversary for dBitFlipPM with the given d choices, over the ε∞ grid.
// Alphas are irrelevant (dBitFlipPM has no ε1); the Alpha field is 0.
func RunDetection(ds *datasets.Dataset, b int, dChoices []int, cfg Config) ([]Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	values := make([][]int, ds.Tau())
	for t := range values {
		values[t] = ds.Round(t)
	}
	var specs []Spec
	for _, d := range dChoices {
		specs = append(specs, Spec{
			Name:  fmt.Sprintf("d=%d", d),
			Proto: longitudinal.ProtocolSpec{Family: "dBitFlipPM", K: ds.K, B: b, D: d},
		})
	}
	detCfg := cfg
	detCfg.Alphas = []float64{0.5} // placeholder; unused by dBitFlipPM
	pts, err := runGrid(ds, specs, detCfg, func(proto longitudinal.Protocol, seed uint64) float64 {
		res, err := attack.DetectDBitFlipChanges(proto.(*longitudinal.DBitFlipPM), values, seed)
		if err != nil {
			return math.NaN()
		}
		return res.FullyDetectedRate()
	})
	if err != nil {
		return nil, err
	}
	for i := range pts {
		pts[i].Alpha = 0
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Grid execution.

type cellJob struct {
	specIdx, epsIdx, alphaIdx, run int
}

// runGrid executes metric once per (spec, ε∞, α, run) cell in parallel and
// aggregates means and standard deviations per point.
func runGrid(ds *datasets.Dataset, specs []Spec, cfg Config,
	metric func(proto longitudinal.Protocol, seed uint64) float64) ([]Point, error) {

	type cellKey struct{ s, e, a int }
	results := make(map[cellKey][]float64)
	buildErrs := make(map[cellKey]error)
	var mu sync.Mutex

	jobs := make(chan cellJob)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec := specs[j.specIdx]
				epsInf := cfg.EpsInfs[j.epsIdx]
				alpha := cfg.Alphas[j.alphaIdx]
				proto, err := spec.Build(ds.K, epsInf, alpha*epsInf)
				key := cellKey{j.specIdx, j.epsIdx, j.alphaIdx}
				if err != nil {
					mu.Lock()
					buildErrs[key] = err
					mu.Unlock()
					continue
				}
				seed := randsrc.Derive(cfg.Seed,
					uint64(j.specIdx), uint64(j.epsIdx), uint64(j.alphaIdx), uint64(j.run))
				v := metric(proto, seed)
				mu.Lock()
				results[key] = append(results[key], v)
				mu.Unlock()
			}
		}()
	}
	for s := range specs {
		for e := range cfg.EpsInfs {
			for a := range cfg.Alphas {
				for r := 0; r < cfg.Runs; r++ {
					jobs <- cellJob{s, e, a, r}
				}
			}
		}
	}
	close(jobs)
	wg.Wait()

	var out []Point
	for s, spec := range specs {
		for e, epsInf := range cfg.EpsInfs {
			for a, alpha := range cfg.Alphas {
				key := cellKey{s, e, a}
				p := Point{
					Dataset:  ds.Name,
					Protocol: spec.Name,
					EpsInf:   epsInf,
					Alpha:    alpha,
				}
				if err, bad := buildErrs[key]; bad {
					p.Err = err
				} else {
					vals := results[key]
					sort.Float64s(vals)
					p.Runs = len(vals)
					p.Mean, p.Std = meanStd(vals)
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

func meanStd(vals []float64) (mean, std float64) {
	if len(vals) == 0 {
		return math.NaN(), math.NaN()
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if len(vals) < 2 {
		return mean, 0
	}
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(std / float64(len(vals)-1))
}

// ---------------------------------------------------------------------------
// Replay: run one protocol over a dataset and return per-round estimates
// (used by examples and integration tests).

// Replay drives proto over the whole dataset once and returns the
// estimates of every round.
func Replay(ds *datasets.Dataset, proto longitudinal.Protocol, seed uint64) [][]float64 {
	return ReplaySharded(ds, proto, seed, 1)
}

// ReplaySharded is Replay with each round's cohort collected on the
// given number of shards; estimates are bit-identical to Replay.
func ReplaySharded(ds *datasets.Dataset, proto longitudinal.Protocol, seed uint64, shards int) [][]float64 {
	stream := newCohortStream(proto, ds.N(), seed, shards)
	out := make([][]float64, ds.Tau())
	for t := range out {
		out[t] = collect(stream, ds.Round(t)).Raw
	}
	return out
}
