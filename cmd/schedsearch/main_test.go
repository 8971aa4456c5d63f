package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseStarts(t *testing.T) {
	starts, err := parseStarts("4,2,2;1,2,1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 || starts[0][0] != 4 || starts[1][2] != 1 {
		t.Errorf("parsed %v", starts)
	}
	for _, bad := range []string{"1,2", "1,2,x", "0,2,2", ""} {
		if _, err := parseStarts(bad, 3); err == nil {
			t.Errorf("parseStarts(%q) succeeded, want error", bad)
		}
	}
}

// TestRunProfiles exercises the -cpuprofile/-memprofile plumbing on a tiny
// hybrid-only search.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var sb strings.Builder
	args := []string{"-budget", "tiny", "-maxm", "4", "-starts", "1,1,1", "-skip-exhaustive",
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad starts", []string{"-starts", "1,2", "-budget", "tiny"}},
		{"infeasible start", []string{"-starts", "30,30,30", "-budget", "tiny", "-maxm", "40"}},
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

func TestRunHybridOnly(t *testing.T) {
	var sb strings.Builder
	args := []string{"-budget", "tiny", "-maxm", "2", "-starts", "1,1,1", "-skip-exhaustive"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Hybrid search:", "overall best:", "evaluations executed:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Exhaustive baseline") {
		t.Error("-skip-exhaustive must suppress the baseline")
	}
}

func TestRunSharedCacheWithExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("full search is slow for -short")
	}
	var sb strings.Builder
	args := []string{"-budget", "tiny", "-maxm", "2", "-starts", "1,1,1;2,1,1", "-shared-cache", "-workers", "2"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Hybrid search:", "Exhaustive baseline:", "shared cache:", "global optimum:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
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
