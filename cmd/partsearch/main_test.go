package main

import (
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
