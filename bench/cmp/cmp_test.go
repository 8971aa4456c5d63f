package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// series returns n values around mid with the given relative jitter.
func series(mid, jitter float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mid * (1 + jitter*float64(i-n/2)/float64(n))
	}
	return out
}

func pairsOf(a, b []float64) [][2]float64 {
	p := make([][2]float64, len(a))
	for i := range a {
		p[i] = [2]float64{a[i], b[i]}
	}
	return p
}

func TestVerdict(t *testing.T) {
	base := series(100, 0.04, 10) // spread ~2%
	for _, c := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"faster throughput wins every pair", series(120, 0.04, 10), "higher", "improved"},
		{"lower latency wins every pair", series(80, 0.04, 10), "lower", "improved"},
		{"same distribution", series(100, 0.04, 10), "higher", "within bound"},
		{"slightly worse inside the bound", series(97, 0.04, 10), "higher", "within bound"},
		{"throughput drop beyond the bound", series(80, 0.04, 10), "higher", "regressed"},
		{"latency rise beyond the bound", series(120, 0.04, 10), "lower", "regressed"},
		{"change far noisier than the bound", series(100, 2.0, 10), "higher", "unresolved"},
	} {
		got, _ := verdict(base, c.change, pairsOf(base, c.change), c.better, 0.1)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestVerdictNeedsNineInTenWins(t *testing.T) {
	base := series(100, 0.04, 10)
	change := series(110, 0.04, 10)
	change[0], change[1] = 90, 90 // two lost pairs: 8 in 10
	got, share := verdict(base, change, pairsOf(base, change), "higher", 0.1)
	if got == "improved" || math.Abs(share-0.8) > 1e-9 {
		t.Errorf("verdict %q with share %v, want no improvement at 8 in 10", got, share)
	}
}

func TestVerdictNoisyButEveryRunBetter(t *testing.T) {
	base := []float64{50, 60, 70, 80, 90, 100, 110, 120, 130, 140}
	change := []float64{200, 210, 220, 230, 240, 250, 260, 270, 280, 290}
	// Spread is far above the bound, yet every change run beats every
	// parent run, so "unresolved" would understate it.
	if got, _ := verdict(base, change, nil, "higher", 0.05); got != "within bound" {
		t.Errorf("verdict %q, want within bound", got)
	}
}

const testDefinition = `{
  "command": ["bash", "bench/run.sh"],
  "paths": ["bench"],
  "run_seconds": 1,
  "workloads": [{"name": "alpha", "why": "a"}, {"name": "beta", "why": "b"}],
  "end_to_end": [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
  ],
  "per_layer": [{"name": "x", "unit": "count", "better": "higher"}]
}`

func writeRuns(t *testing.T, dir, workload string, thr, lat []float64, correct bool) {
	t.Helper()
	for i := range thr {
		out := fmt.Sprintf("# workload %s\nthroughput %g 1/s\n"+
			`{"correct":%v,"attempted":10,"failed":0,"metrics":{"throughput":{"value":%g,"unit":"1/s"},"latency_p50_ms":{"value":%g,"unit":"ms"}}}`+"\n",
			workload, thr[i], correct, thr[i], lat[i])
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.out", workload, i+1)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareDirectories(t *testing.T) {
	root := t.TempDir()
	def := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(def, []byte(testDefinition), 0o644); err != nil {
		t.Fatal(err)
	}
	base, change := filepath.Join(root, "base"), filepath.Join(root, "change")
	for _, d := range []string{base, change} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeRuns(t, base, "alpha", series(100, 0.04, 10), series(5, 0.04, 10), true)
	writeRuns(t, change, "alpha", series(125, 0.04, 10), series(5, 0.04, 10), true)
	writeRuns(t, base, "beta", series(100, 0.04, 10), series(5, 0.04, 10), true)
	writeRuns(t, change, "beta", series(70, 0.04, 10), series(5, 0.04, 10), true)

	var out, errOut bytes.Buffer
	code := run([]string{"-benchmark", def, base, change}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit %d, want 1 for a regression; stderr %s", code, errOut.String())
	}
	for _, want := range []string{"improved", "regressed", "within bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	lines := strings.Split(out.String(), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha ") && strings.Contains(l, "throughput") && !strings.HasSuffix(l, "improved") {
			t.Errorf("alpha throughput: %q, want improved", l)
		}
		if strings.HasPrefix(l, "beta ") && strings.Contains(l, "throughput") && !strings.HasSuffix(l, "regressed") {
			t.Errorf("beta throughput: %q, want regressed", l)
		}
	}

	out.Reset()
	if code := run([]string{"-benchmark", def, base}, &out, &errOut); code != 0 {
		t.Errorf("calibration exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "alpha") || !strings.Contains(out.String(), "spread") {
		t.Errorf("calibration output:\n%s", out.String())
	}
}

func TestFailedRunsFailTheComparison(t *testing.T) {
	root := t.TempDir()
	def := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(def, []byte(testDefinition), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "runs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeRuns(t, dir, "alpha", series(100, 0.04, 3), series(5, 0.04, 3), false)
	var out, errOut bytes.Buffer
	if code := run([]string{"-benchmark", def, dir}, &out, &errOut); code != 1 {
		t.Errorf("exit %d, want 1 when runs failed their checks", code)
	}
	if !strings.Contains(out.String(), "failed run") {
		t.Errorf("output does not report the failed runs:\n%s", out.String())
	}
}

func TestParseRunRejectsMissingSummary(t *testing.T) {
	if _, err := parseRun([]byte("throughput 1 1/s\n")); err == nil {
		t.Error("a run without a JSON summary parsed")
	}
	if _, err := parseRun(nil); err == nil {
		t.Error("an empty run parsed")
	}
}
