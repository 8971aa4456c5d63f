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

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkDefinition pins BENCHMARK.json to the metrics and workloads
// this program reports.
func TestBenchmarkDefinition(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Command) == 0 || len(b.Command) > 32 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q", d.name)
			}
		}
	}
	var names, units []string
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end-to-end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	check("per-layer", perLayer, names, units)
}

// TestSmoke runs every workload at smoke size, untraced and traced, with
// all of its correctness oracles, and checks what it prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/served and runs every workload")
	}
	b := loadBenchmark(t)
	served := filepath.Join(t.TempDir(), "served")
	build := exec.Command("go", "build", "-o", served, "./cmd/served")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build served: %v\n%s", err, out)
	}
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.json")
				code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--size", "smoke",
					"--trace", trace, "--root", "..", "--served", served, "--work", t.TempDir(), "--spans", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				if trace == "1" {
					var recs []struct {
						Layer string  `json:"layer"`
						Ref   string  `json:"ref"`
						End   float64 `json:"end_us"`
					}
					data, err := os.ReadFile(spans)
					if err != nil || json.Unmarshal(data, &recs) != nil || len(recs) == 0 {
						t.Errorf("traced run wrote no spans (%v)", err)
					}
					for _, r := range recs {
						if r.Layer == "" || r.Ref == "" || r.End <= 0 {
							t.Errorf("span %+v lacks its layer, ID or end", r)
							break
						}
					}
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the JSON summary: %v\n%s", err, stdout.String())
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Errorf("summary correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(sum.Metrics), len(want))
				}
				for name, m := range sum.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					if unit, ok := want[name]; !ok || unit != m.Unit {
						t.Errorf("metric %s (%s) is not in BENCHMARK.json as such", name, m.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				for _, l := range lines[:len(lines)-1] {
					if strings.HasPrefix(l, "#") {
						continue
					}
					if f := strings.Fields(l); len(f) != 3 || want[f[0]] != f[2] {
						t.Errorf("metric line %q is not name value unit", l)
					}
				}
			})
		}
	}
}
