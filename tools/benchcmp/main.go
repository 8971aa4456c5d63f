// Command benchcmp summarizes and compares `go test -bench -benchmem`
// output without the external benchstat tool.
//
// With one file it prints, per benchmark, the median and the quartiles of
// ns/op, B/op and allocs/op over the file's runs (one result line per run,
// as `-count N` writes them):
//
//	go run ./tools/benchcmp after.txt
//
// With two files — a parent and a change — it prints both sides' medians
// and quartiles, the change in the median, and how many run pairs the
// change won. Runs pair up by their order within each file, so record the
// runs alternately (one `-count 1` run per side, repeated) when drift of
// the machine matters:
//
//	go run ./tools/benchcmp before.txt after.txt
//
// ns/op, B/op and allocs/op are better when lower. The verdict follows
// bench/cmp's rule: "better" when the change won at least 9 in 10 pairs and
// its median moved by more than the parent's interquartile distance,
// "worse" when it lost that way, "~" otherwise. Metrics a benchmark
// reports itself (b.ReportMetric: points visited, optima) follow, with
// their medians and change but no pair verdict, as their direction is not
// known here.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// units are the compared metrics, in print order.
var units = []string{"ns/op", "B/op", "allocs/op"}

// results holds every run's value per benchmark and unit, in file order.
type results struct {
	names    []string // benchmarks in order of first appearance
	values   map[string]map[string][]float64
	reported []string // units not in units, in order of first appearance
}

// printUnits lists the compared metrics, then every reported one of sets.
func printUnits(sets ...*results) []string {
	out := append([]string(nil), units...)
	seen := map[string]bool{}
	for _, res := range sets {
		for _, u := range res.reported {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// parse reads `go test -bench` text: every line starting with "Benchmark"
// is one run, "Name Iterations value unit [value unit]...".
func parse(r io.Reader) (*results, error) {
	res := &results{values: map[string]map[string][]float64{}}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue // a "BenchmarkX" log line, not a result
		}
		byUnit := res.values[f[0]]
		if byUnit == nil {
			byUnit = map[string][]float64{}
			res.values[f[0]] = byUnit
			res.names = append(res.names, f[0])
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: value %q: %v", line, f[i], err)
			}
			u := f[i+1]
			if !slices.Contains(units, u) && !slices.Contains(res.reported, u) {
				res.reported = append(res.reported, u)
			}
			byUnit[u] = append(byUnit[u], v)
		}
	}
	return res, sc.Err()
}

// quartiles returns the first quartile, the median and the third quartile
// with the method of Python's statistics.quantiles(data, n=4) (exclusive),
// as bench/cmp does.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// wins counts the run pairs (by index) in which the change is lower.
func wins(base, change []float64) (won, pairs int) {
	pairs = min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if change[i] < base[i] {
			won++
		}
	}
	return won, pairs
}

// verdict applies the 9-in-10 pair rule in either direction.
func verdict(base, change []float64) string {
	q1, medB, q3 := quartiles(base)
	_, medC, _ := quartiles(change)
	won, pairs := wins(base, change)
	lost := 0
	for i := 0; i < pairs; i++ {
		if change[i] > base[i] {
			lost++
		}
	}
	moved := math.Abs(medC-medB) > q3-q1
	switch {
	case pairs > 0 && 10*won >= 9*pairs && medC < medB && moved:
		return "better"
	case pairs > 0 && 10*lost >= 9*pairs && medC > medB && moved:
		return "worse"
	}
	return "~"
}

func summarize(w io.Writer, res *results) {
	fmt.Fprintf(w, "%-48s %-16s %4s %14s %14s %14s\n", "benchmark", "unit", "runs", "q1", "median", "q3")
	for _, name := range res.names {
		for _, u := range printUnits(res) {
			vals := res.values[name][u]
			if len(vals) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-48s %-16s %4d %14.6g %14.6g %14.6g\n", name, u, len(vals), q1, med, q3)
		}
	}
}

func compare(w io.Writer, base, change *results) {
	fmt.Fprintf(w, "%-48s %-16s %27s %27s %8s %6s  %s\n",
		"benchmark", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "")
	for _, name := range base.names {
		if change.values[name] == nil {
			continue
		}
		for _, u := range printUnits(base, change) {
			b, c := base.values[name][u], change.values[name][u]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			cq1, cmed, cq3 := quartiles(c)
			delta := "n/a"
			if bmed != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cmed-bmed)/bmed)
			}
			won, pairs := wins(b, c)
			pairWins, v := fmt.Sprintf("%d/%d", won, pairs), verdict(b, c)
			if !slices.Contains(units, u) {
				pairWins, v = "-", ""
			}
			fmt.Fprintf(w, "%-48s %-16s %27s %27s %8s %6s  %s\n", name, u,
				spanOf(bmed, bq1, bq3), spanOf(cmed, cq1, cq3), delta, pairWins, v)
		}
	}
}

func spanOf(med, q1, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func run(args []string, stdout io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: benchcmp [parent.txt] change.txt")
	}
	sets := make([]*results, len(args))
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sets[i], err = parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if len(sets[i].names) == 0 {
			return fmt.Errorf("%s: no benchmark results", path)
		}
	}
	if len(sets) == 1 {
		summarize(stdout, sets[0])
	} else {
		compare(stdout, sets[0], sets[1])
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
}
