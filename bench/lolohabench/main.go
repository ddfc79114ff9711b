// Command lolohabench is the repository's end-to-end benchmark of the
// collection pipeline: generated clients report to real lolohad processes
// (or, in rappor-sim, to an in-process Stream), every round's published
// estimates are checked against an in-process replay and the closed-form
// variance, and the run prints one line per metric. From the repository
// root:
//
//	bash bench/run.sh -seed 42 -out DIR
//	bash bench/run.sh --workload bilo-tcp-bulk --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh compare A/*.json B/*.json
//
// -trace 1 adds the per-layer breakdown: an in-process replay of the same
// inputs at GOMAXPROCS 1 and 2 with a span around every layer call, plus
// within-run ratio rows. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with -trace 0 the
// metrics are the end-to-end ones, with -trace 1 the per-layer ones. A run
// whose outputs fail a check prints correct:false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	_ "github.com/loloha-ldp/loloha/internal/core" // registers the LOLOHA families
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "lolohabench: %v, stopping daemons\n", s)
		stopAll(true)
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	out     string
	lolohad string
}

func (cfg *config) stateDir(w *workload, rep int) string {
	return filepath.Join(cfg.out, "state", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), rep))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compareCmd(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "lolohabench compare:", err)
			return 2
		}
		return 0
	}
	// Whatever happens below, no daemon outlives the run.
	defer stopAll(false)

	fs := flag.NewFlagSet("lolohabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seed int64
	var trace int
	var name string
	fs.StringVar(&name, "workload", "all", "workload to run, or all")
	fs.Int64Var(&seed, "seed", 42, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "timed work per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced per-layer breakdown")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes: 2 timed rounds, at most 512 users")
	fs.StringVar(&cfg.out, "out", ".bench_out", "directory for result files, spans and daemon state")
	fs.StringVar(&cfg.lolohad, "lolohad", "", "lolohad binary to run (default: build cmd/lolohad into "+buildDir+")")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "lolohabench: usage: lolohabench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
		return 2
	}
	cfg.seed, cfg.trace = uint64(seed), trace == 1
	selected := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(stderr, "lolohabench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	// The generator and every in-process measurement stay within 2 CPUs.
	runtime.GOMAXPROCS(2)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "lolohabench:", err)
		return 1
	}
	if cfg.lolohad == "" {
		bin, err := buildDaemon(buildDir)
		if err != nil {
			fmt.Fprintln(stderr, "lolohabench:", err)
			return 1
		}
		cfg.lolohad = bin
	}

	env := environment(cfg.out)
	final := summary{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range selected {
		out, err := runWorkload(&cfg, w, env)
		if err != nil {
			fmt.Fprintf(stderr, "lolohabench: %s: %v\n", w.name, err)
			return 1
		}
		for _, p := range out.Problems {
			fmt.Fprintf(stderr, "lolohabench: %s: check failed: %s\n", w.name, p)
		}
		for _, l := range out.lines {
			fmt.Fprintln(stdout, l)
		}
		final.Correct = final.Correct && out.Correct
		final.Attempted += out.Attempted
		final.Failed += out.Failed
		for k, m := range out.reported(cfg.trace) {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = valueUnit{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "lolohabench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// buildDir is where lolohad is built, beside bench/run.sh's build cache.
const buildDir = ".bench_build"

// buildDaemon builds cmd/lolohad from the source tree in the working
// directory.
func buildDaemon(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "lolohad"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lolohad")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/lolohad (run from the repository root): %v\n%s", err, out)
	}
	return bin, nil
}

// metric is one named measurement as the result JSON carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile; omitted elsewhere.
	N int `json:"n,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's run: its result file's content plus the lines
// printed for it.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Started   int64             `json:"started_unix_ns"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	Env       envBlock          `json:"environment"`

	lines []string
}

func (o *outcome) reported(trace bool) map[string]metric {
	if trace {
		return o.PerLayer
	}
	return o.EndToEnd
}

func runWorkload(cfg *config, w *workload, env envBlock) (*outcome, error) {
	out := &outcome{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Started: time.Now().UnixNano(), Env: env}
	out.Env.GOMAXPROCS = map[string]int{"lolohabench": runtime.GOMAXPROCS(0)}
	if w.deploy != nil {
		out.Env.GOMAXPROCS["lolohad"] = w.procs
	}
	users, _ := w.size(cfg.smoke)
	// Dataset generation is not part of set-up: it stands in for devices.
	in, err := newInputs(w.spec, users, cfg.rounds(w), cfg.seed)
	if err != nil {
		return nil, err
	}
	var res *runResult
	if w.deploy != nil {
		res, err = runDaemons(cfg, w, in)
	} else {
		res, err = runSim(cfg, w, in)
	}
	if err != nil {
		return nil, err
	}
	checkOutputs(w, in, res)
	out.EndToEnd = endToEnd(res)
	if cfg.trace {
		tr, err := traceWorkload(cfg, w, res)
		if err != nil {
			return nil, err
		}
		out.PerLayer = tr.metrics
		res.problems = append(res.problems, tr.problems...)
	}
	out.Problems, out.Correct = res.problems, len(res.problems) == 0
	out.Attempted, out.Failed = res.attempted, res.failed
	out.lines = append(metricLines(w.name, out.EndToEnd), metricLines(w.name, out.PerLayer)...)
	return out, writeResult(cfg.out, out)
}

// endToEnd derives the end-to-end metrics of a run. Tails stop at p90:
// on a shared 2-CPU host, dbit-http-open's p99 of sub-millisecond
// requests spread by more than half its median from run to run. CPU per
// report is a per-layer metric for the same reason (a third of its
// median on dbit-http-open).
func endToEnd(res *runResult) map[string]metric {
	pct := func(xs []float64, p float64) metric { return metric{Value: quantile(xs, p), Unit: "ms", N: len(xs)} }
	return map[string]metric{
		"reports_per_s":      {Value: float64(res.reports) / res.timed.Seconds(), Unit: "reports/s"},
		"batch_ack_ms_p50":   pct(res.batchMS, 0.50),
		"batch_ack_ms_p90":   pct(res.batchMS, 0.90),
		"round_close_ms_p50": pct(res.closeMS, 0.50),
		"round_close_ms_p90": pct(res.closeMS, 0.90),
		"setup_s":            {Value: median(res.setupS), Unit: "s", N: len(res.setupS)},
		"rss_mb":             {Value: res.rssMB, Unit: "MB"},
	}
}

// metricLines renders "workload metric value unit [n=samples]" lines in
// name order.
func metricLines(workload string, ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := make([]string, 0, len(names))
	for _, k := range names {
		m := ms[k]
		l := fmt.Sprintf("%s %s %s %s", workload, k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			l += fmt.Sprintf(" n=%d", m.N)
		}
		lines = append(lines, l)
	}
	return lines
}

// writeResult stores the outcome as DIR/<workload>-s<seed>-<start>.json,
// the input of `lolohabench compare`.
func writeResult(dir string, out *outcome) error {
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-%d.json", out.Workload, out.Seed, out.Started)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
