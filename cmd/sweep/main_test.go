package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTimingSweep(t *testing.T) {
	var sb strings.Builder
	args := []string{"-n", "4", "-workers", "2", "-seed", "3", "-exhaustive"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"name", "P_all", "hit-rate", "scenarios found a feasible schedule", "aggregate hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "3", "-workers", "3", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "scenario,seed,apps,best,pall,found,evaluated,hits,misses,hit_rate\n") {
		t.Errorf("CSV header missing:\n%.120s", out)
	}
	if strings.Count(out, "\n") != 4 { // header + 3 scenarios
		t.Errorf("CSV line count: %d", strings.Count(out, "\n"))
	}
}

// TestRunDeterministicAcrossWorkerCounts is the CLI-level determinism
// check: identical flags except for -workers must print identical reports.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var serial, parallel strings.Builder
	base := []string{"-n", "6", "-seed", "17", "-exhaustive", "-platforms", "4"}
	if err := run(append([]string{"-workers", "1"}, base...), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-workers", "6"}, base...), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestRunProfiles checks the -cpuprofile/-memprofile plumbing end to end:
// both files must exist and be non-empty after a run.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var sb strings.Builder
	args := []string{"-n", "2", "-workers", "2", "-cpuprofile", cpu, "-memprofile", mem}
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
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "dir", "cpu")}, &sb); err == nil {
		t.Error("unwritable -cpuprofile path must error")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad objective", []string{"-objective", "vibes"}},
		{"platforms out of range", []string{"-platforms", "99"}},
		{"zero scenarios", []string{"-n", "0"}},
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

// TestRunRejectsUnknownBudget pins that the CLI checks budget names
// against the list the service and the coordinator use, instead of
// running an unknown name as the quick budget.
func TestRunRejectsUnknownBudget(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "1", "-budget", "nope"}, &sb); err == nil {
		t.Errorf("-budget nope accepted:\n%s", sb.String())
	}
}

// TestRunScenarioAxisFlags drives the arrival and hierarchy flags end to
// end: each axis changes the report, stays deterministic across worker
// counts, and invalid axis values fail flag validation.
func TestRunScenarioAxisFlags(t *testing.T) {
	base := []string{"-n", "4", "-seed", "17", "-exhaustive"}
	runOut := func(extra ...string) string {
		t.Helper()
		var sb strings.Builder
		if err := run(append(append([]string{}, base...), extra...), &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	periodic := runOut("-workers", "2")
	jittered := runOut("-workers", "1", "-jitter", "0.2", "-arrival-seed", "7")
	if jittered == periodic {
		t.Error("-jitter 0.2 left the report unchanged")
	}
	if again := runOut("-workers", "4", "-jitter", "0.2", "-arrival-seed", "7"); again != jittered {
		t.Error("jittered sweep not deterministic across worker counts")
	}
	// Random programs draw from a 64-line address span, which never
	// conflicts in the 128-line L1 — so the L2 overlay cannot prove a
	// single extra hit and the multi-level analysis must land on exactly
	// the single-level report, bit for bit. (Programs that do conflict are
	// pinned by Table VI and the wcet hierarchy tests.)
	l2 := runOut("-workers", "2", "-l2-lines", "512")
	if l2 != periodic {
		t.Error("-l2-lines 512 changed the report of conflict-free programs")
	}
	if again := runOut("-workers", "5", "-l2-lines", "512", "-l2-exclusive"); again != l2 {
		t.Error("hierarchy sweep not deterministic across worker counts and modes")
	}

	for _, bad := range [][]string{
		{"-jitter", "1.5"},
		{"-jitter", "-0.1"},
		{"-l2-lines", "512", "-l2-hit", "200"}, // L2 hit above L1 miss
	} {
		var sb strings.Builder
		if err := run(append(append([]string{}, base...), bad...), &sb); err == nil {
			t.Errorf("run(%v) succeeded, want error", bad)
		}
	}
}
