package main

import (
	"strings"
	"testing"
)

func TestRunFlagAndArgErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"unknown mode", []string{"-mode", "frobnicate", "-budget", "tiny"}},
		{"short schedule", []string{"-mode", "timeline", "-schedule", "1,2", "-budget", "tiny"}},
		{"bad burst", []string{"-mode", "timeline", "-schedule", "1,x,3", "-budget", "tiny"}},
		{"zero burst", []string{"-mode", "timeline", "-schedule", "1,0,3", "-budget", "tiny"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tc.args, &sb); err == nil {
				t.Errorf("run(%v) succeeded, want error", tc.args)
			}
		})
	}
}

func TestRunWcetMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "wcet", "-budget", "tiny"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "907.55", "452.15", "Guaranteed WCET reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("wcet output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTimelineMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "timeline", "-schedule", "2,1,1", "-budget", "tiny"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "schedule (2, 1, 1)") {
		t.Errorf("timeline missing schedule header:\n%s", out)
	}
	if !strings.Contains(out, "cold cache") || !strings.Contains(out, "warm cache") {
		t.Errorf("timeline missing cache states:\n%s", out)
	}
}

func TestRunEvalMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "eval", "-schedule", "1,1,1", "-budget", "tiny"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Schedule (1, 1, 1): P_all =") {
		t.Errorf("eval output missing P_all line:\n%s", out)
	}
	if !strings.Contains(out, "settling") {
		t.Errorf("eval output missing per-app settling:\n%s", out)
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
