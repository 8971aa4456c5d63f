package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchText renders `go test -bench -benchmem` result lines: one per run,
// with a log line and a header mixed in as real output has them.
func benchText(name string, ns, allocs []float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\npkg: repro\n" + name + "\n")
	for i := range ns {
		b.WriteString(name + "-2   \t      50\t  ")
		b.WriteString(strconv.FormatFloat(ns[i], 'f', -1, 64) + " ns/op\t    4374 distinct-evals\t 3606389 B/op\t ")
		b.WriteString(strconv.FormatFloat(allocs[i], 'f', -1, 64) + " allocs/op\n")
	}
	b.WriteString("PASS\n")
	return b.String()
}

func TestParseKeepsRunsInOrder(t *testing.T) {
	res, err := parse(strings.NewReader(benchText("BenchmarkX", []float64{30, 10, 20}, []float64{5, 5, 6})))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.names) != 1 || res.names[0] != "BenchmarkX-2" {
		t.Fatalf("names = %v", res.names)
	}
	got := res.values["BenchmarkX-2"]
	if !equal(got["ns/op"], []float64{30, 10, 20}) || !equal(got["allocs/op"], []float64{5, 5, 6}) ||
		!equal(got["B/op"], []float64{3606389, 3606389, 3606389}) || !equal(got["distinct-evals"], []float64{4374, 4374, 4374}) {
		t.Errorf("values = %v", got)
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
	q1, med, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5})
	if q1 != 2.5 || med != 5 || q3 != 7.5 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{4}); med != 4 {
		t.Errorf("single-run median %v", med)
	}
	if _, med, _ := quartiles(nil); !math.IsNaN(med) {
		t.Errorf("empty median %v", med)
	}
}

func TestVerdictPairRule(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := []float64{60, 61, 59, 60, 62, 58, 60, 61, 59, 60}
	if v := verdict(base, faster); v != "better" {
		t.Errorf("10/10 wins far outside the spread: %q", v)
	}
	if v := verdict(faster, base); v != "worse" {
		t.Errorf("10/10 losses far outside the spread: %q", v)
	}
	// 8 of 10 pairs is not enough.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 150, 150
	if v := verdict(base, mixed); v != "~" {
		t.Errorf("8/10 wins: %q", v)
	}
	// All pairs won, but by less than the parent's interquartile distance.
	if v := verdict(base, []float64{99, 101, 97, 100, 98, 99, 102, 96, 99, 100}); v != "~" {
		t.Errorf("win within the spread: %q", v)
	}
	if won, pairs := wins(base, faster[:4]); won != 4 || pairs != 4 {
		t.Errorf("wins over unequal run counts = %d/%d", won, pairs)
	}
}

func TestRunComparesTwoFiles(t *testing.T) {
	dir := t.TempDir()
	before := filepath.Join(dir, "before.txt")
	after := filepath.Join(dir, "after.txt")
	ns := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	fast := []float64{50, 51, 49, 50, 52, 48, 50, 51, 49, 50}
	allocs := []float64{900, 900, 900, 900, 900, 900, 900, 900, 900, 900}
	if err := os.WriteFile(before, []byte(benchText("BenchmarkX", ns, allocs)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(after, []byte(benchText("BenchmarkX", fast, allocs)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{before, after}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	var nsLine, allocLine, reportedLine string
	for _, l := range lines {
		switch {
		case strings.Contains(l, " ns/op "):
			nsLine = l
		case strings.Contains(l, " allocs/op "):
			allocLine = l
		case strings.Contains(l, " distinct-evals "):
			reportedLine = l
		}
	}
	if !strings.Contains(nsLine, "-50.0%") || !strings.Contains(nsLine, "10/10") || !strings.HasSuffix(nsLine, "better") {
		t.Errorf("ns/op line: %q", nsLine)
	}
	if !strings.Contains(allocLine, "+0.0%") || !strings.Contains(allocLine, "0/10") || !strings.HasSuffix(allocLine, "~") {
		t.Errorf("allocs/op line: %q", allocLine)
	}
	// A metric the benchmark reports itself is compared without a verdict.
	if !strings.Contains(reportedLine, "+0.0%") || !strings.HasSuffix(strings.TrimSpace(reportedLine), "-") {
		t.Errorf("distinct-evals line: %q", reportedLine)
	}

	out.Reset()
	if err := run([]string{after}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkX-2") || !strings.Contains(out.String(), "allocs/op") {
		t.Errorf("summary:\n%s", out.String())
	}
	if err := run(nil, &out); err == nil {
		t.Error("no files accepted")
	}
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, []byte("PASS\n"), 0o644)
	if err := run([]string{empty}, &out); err == nil {
		t.Error("file without results accepted")
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
