package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunTableMode(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"TABLE IV", "paper-128x1", "4way-512", "8way-512",
		"(2, 4, 2)", "x[2 1 1]", "+45.9%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPlatformDetail(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-platform", "4way-512", "-maxm", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"128 sets x 4 ways", "steady-state WCET by dedicated ways",
		"joint hybrid search", "schedule-only optimum", "joint optimum", "partitioning gain",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("detail output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDesignObjective(t *testing.T) {
	// Hybrid-only joint search with the full design pipeline on the paper
	// platform (no partitions there, so the box stays tiny) with the
	// smallest budget: exercises core.EvaluateJoint end to end.
	var sb strings.Builder
	if err := run([]string{"-platform", "paper-128x1", "-objective", "design", "-budget", "tiny", "-maxm", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"objective design", "joint hybrid search", "overall best"} {
		if !strings.Contains(out, want) {
			t.Errorf("design output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "exhaustive joint baseline") {
		t.Errorf("design mode without -exhaustive must not run the baseline:\n%s", out)
	}
}

// TestRunMulticoreDesignGolden pins the design-objective placement
// co-design on the paper cache (two cores, tiny budget, burst cap 2) byte
// for byte: placement [0 1 0] at P_all 0.6431 over 24 core points, against
// the single-core optimum (2, 1, 1) at 0.5404. -bb must not change a byte:
// the design objective has no bound, so the flag leaves its exact passes
// as they are.
func TestRunMulticoreDesignGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/multicore_design_tiny_maxm2.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-bb"}} {
		args := append([]string{"-platform", "paper-128x1", "-objective", "design", "-budget", "tiny",
			"-maxm", "2", "-cores", "2", "-exhaustive"}, extra...)
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Errorf("%v output differs from the golden:\ngot:\n%s\nwant:\n%s", args, got, want)
		}
	}
}

func TestRunRejectsUnknownPlatformAndObjective(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-platform", "nope"}, &sb); err == nil || !strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("unknown platform error = %v", err)
	}
	if err := run([]string{"-objective", "nope"}, &sb); err == nil || !strings.Contains(err.Error(), "unknown objective") {
		t.Errorf("unknown objective error = %v", err)
	}
}

// TestRunRejectsUnknownBudget pins that an unknown -budget name is a usage
// error instead of running silently as the quick budget.
func TestRunRejectsUnknownBudget(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-budget", "nope"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `unknown budget "nope"`) {
		t.Errorf("-budget nope: err = %v, output:\n%s", err, sb.String())
	}
}
