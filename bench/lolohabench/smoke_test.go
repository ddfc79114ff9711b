package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke size (2 timed rounds, at most 512
// users) against a lolohad built from this tree, untraced and traced, and
// checks what the benchmark promises: every metric BENCHMARK.json declares
// is printed for every workload, the outputs pass their checks, and no
// daemon outlives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs lolohad")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "lolohad")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lolohad")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lolohad: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, trace := range []string{"0", "1"} {
		declared := spec.EndToEnd
		if trace == "1" {
			declared = spec.PerLayer
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "all", "-smoke", "-seed", "7", "-trace", trace,
			"-lolohad", bin, "-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", trace, err)
		}
		if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d", trace, last.Correct, last.Failed, last.Attempted)
		}
		printed := map[string]string{} // "workload metric" -> unit
		for _, l := range lines[:len(lines)-1] {
			f := strings.Fields(l)
			if len(f) < 4 || !name.MatchString(f[0]) || !name.MatchString(f[1]) {
				t.Errorf("trace %s: malformed metric line %q", trace, l)
				continue
			}
			printed[f[0]+" "+f[1]] = f[3]
		}
		for _, w := range workloads {
			for _, m := range declared {
				unit, ok := printed[w.name+" "+m.Name]
				if !ok {
					t.Errorf("trace %s: %s does not print %s", trace, w.name, m.Name)
				} else if unit != m.Unit {
					t.Errorf("trace %s: %s prints %s in %s, BENCHMARK.json says %s", trace, w.name, m.Name, unit, m.Unit)
				}
				if _, ok := last.Metrics[w.name+"/"+m.Name]; !ok {
					t.Errorf("trace %s: result object lacks %s/%s", trace, w.name, m.Name)
				}
			}
		}
		if pids := running(bin); len(pids) > 0 {
			t.Fatalf("trace %s: lolohad processes %v outlived the run", trace, pids)
		}
	}
}

// running returns the processes executing bin.
func running(bin string) []string {
	var pids []string
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, e.Name())
		}
	}
	return pids
}
