// Command cmp compares sets of end-to-end benchmark runs without the
// external benchstat tool. Each run is one file holding the standard output
// of `bench/run.sh`, named after its workload ("<workload>-<anything>"); its
// last line is the run's JSON summary. bench/runs.sh produces such sets.
//
// With one directory it calibrates: for every workload and end-to-end
// metric it prints the median, the quartiles and the spread (interquartile
// distance over the median) next to the metric's bound from BENCHMARK.json.
//
//	go run ./cmp -benchmark ../BENCHMARK.json runs/base
//
// With two directories it compares a change against its parent:
//
//	go run ./cmp -benchmark ../BENCHMARK.json runs/base runs/change
//
// Runs pair up by file name, so name both sides' runs alike (one per seed)
// and run the pairs alternately. For every workload and metric it prints
// each side's median and quartiles, the share of pairs the change won, and
// a verdict:
//   - improved: the change won at least 9 in 10 pairs and its median moved
//     by more than the parent's own interquartile distance;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's spread exceeds the bound, so "within
//     bound" cannot be told from noise — unless every run of the change
//     reads better than every run of the parent;
//   - within bound: none of the above.
//
// The exit status is 1 when any metric regressed or a run failed its
// correctness checks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// definition is the part of BENCHMARK.json the comparison needs.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// summary is one run's JSON line.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSet is one side's runs: workload -> run name -> summary.
type runSet map[string]map[string]summary

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: cmp [-benchmark BENCHMARK.json] BASE_DIR [CHANGE_DIR]")
		return 2
	}
	def, err := loadDefinition(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "cmp:", err)
		return 2
	}
	sets := make([]runSet, fs.NArg())
	for i, dir := range fs.Args() {
		if sets[i], err = loadRuns(dir, def); err != nil {
			fmt.Fprintln(stderr, "cmp:", err)
			return 2
		}
	}
	if len(sets) == 1 {
		return calibrate(stdout, def, sets[0])
	}
	return compare(stdout, def, sets[0], sets[1])
}

func loadDefinition(path string) (definition, error) {
	var def definition
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// loadRuns reads every run file of dir, keyed by workload and file name.
func loadRuns(dir string, def definition) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		workload := ""
		for _, w := range def.Workloads {
			if strings.HasPrefix(e.Name(), w.Name+"-") || strings.HasPrefix(e.Name(), w.Name+".") {
				workload = w.Name
			}
		}
		if workload == "" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		s, err := parseRun(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, e.Name()), err)
		}
		if set[workload] == nil {
			set[workload] = map[string]summary{}
		}
		set[workload][e.Name()] = s
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no run files named after a workload", dir)
	}
	return set, nil
}

// parseRun decodes the last non-empty line of a run's output.
func parseRun(data []byte) (summary, error) {
	var s summary
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return s, fmt.Errorf("empty run output")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return s, fmt.Errorf("last line is not a run summary: %w", err)
	}
	return s, nil
}

// values returns the metric's values over the correct runs, in name order,
// and how many runs failed their checks.
func values(runs map[string]summary, metric string) (names []string, vals []float64, failed int) {
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	var kept []string
	for _, name := range names {
		s := runs[name]
		m, ok := s.Metrics[metric]
		if !s.Correct || !ok {
			failed++
			continue
		}
		kept = append(kept, name)
		vals = append(vals, m.Value)
	}
	return kept, vals, failed
}

// quartiles returns the first quartile, the median and the third quartile
// with the method of Python's statistics.quantiles(data, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func calibrate(w io.Writer, def definition, set runSet) int {
	status := 0
	fmt.Fprintf(w, "%-16s %-16s %4s %14s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "runs", "q1", "median", "q3", "spread", "bound", "")
	for _, wl := range def.Workloads {
		runs := set[wl.Name]
		if len(runs) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			_, vals, failed := values(runs, m.Name)
			if failed > 0 {
				status = 1
			}
			q1, med, q3 := quartiles(vals)
			sp := spread(vals)
			note := "ok"
			switch {
			case failed > 0:
				note = fmt.Sprintf("%d failed run(s)", failed)
			case m.Name == "setup_s":
				note = "spread not bounded"
			case sp > m.Bound:
				note = "SPREAD ABOVE BOUND"
			case sp > m.Bound/3:
				note = "spread above a third of the bound"
			}
			fmt.Fprintf(w, "%-16s %-16s %4d %14.6g %14.6g %14.6g %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(vals), q1, med, q3, 100*sp, 100*m.Bound, note)
		}
	}
	return status
}

// verdict classifies one workload x metric comparison.
func verdict(base, change []float64, pairs [][2]float64, better string, bound float64) (string, float64) {
	q1, medB, q3 := quartiles(base)
	_, medC, _ := quartiles(change)
	sign := 1.0 // > 0 when the change reads worse
	if better == "higher" {
		sign = -1
	}
	worse := sign * (medC - medB) / math.Abs(medB)
	wins := 0
	for _, p := range pairs {
		if sign*(p[1]-p[0]) < 0 {
			wins++
		}
	}
	share := 0.0
	if len(pairs) > 0 {
		share = float64(wins) / float64(len(pairs))
	}
	if share >= 0.9 && worse < 0 && math.Abs(medC-medB) > q3-q1 {
		return "improved", share
	}
	if math.Max(spread(base), spread(change)) > bound {
		if allBetter(base, change, sign) {
			return "within bound", share
		}
		return "unresolved", share
	}
	if worse > bound {
		return "regressed", share
	}
	return "within bound", share
}

// allBetter reports whether every change value reads better than every
// base value.
func allBetter(base, change []float64, sign float64) bool {
	for _, b := range base {
		for _, c := range change {
			if sign*(c-b) >= 0 {
				return false
			}
		}
	}
	return len(base) > 0 && len(change) > 0
}

func compare(w io.Writer, def definition, base, change runSet) int {
	status := 0
	fmt.Fprintf(w, "%-16s %-16s %32s %32s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, wl := range def.Workloads {
		rb, rc := base[wl.Name], change[wl.Name]
		if len(rb) == 0 || len(rc) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			nb, vb, fb := values(rb, m.Name)
			nc, vc, fc := values(rc, m.Name)
			if fb+fc > 0 {
				status = 1
				fmt.Fprintf(w, "%-16s %-16s failed runs: base %d, change %d\n", wl.Name, m.Name, fb, fc)
				continue
			}
			byName := map[string]float64{}
			for i, n := range nb {
				byName[n] = vb[i]
			}
			var pairs [][2]float64
			for i, n := range nc {
				if b, ok := byName[n]; ok {
					pairs = append(pairs, [2]float64{b, vc[i]})
				}
			}
			v, share := verdict(vb, vc, pairs, m.Better, m.Bound)
			if v == "regressed" {
				status = 1
			}
			bq1, bmed, bq3 := quartiles(vb)
			cq1, cmed, cq3 := quartiles(vc)
			fmt.Fprintf(w, "%-16s %-16s %32s %32s %+7.1f%% %3.0f%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3),
				100*(cmed-bmed)/math.Abs(bmed), 100*share, v)
		}
	}
	return status
}
