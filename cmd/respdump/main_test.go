package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesCSVToStdout(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-budget", "tiny", "-schedules", "1,1,1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "app,schedule,t_s,y\n") {
		t.Errorf("CSV header missing:\n%.120s", out)
	}
	if strings.Count(out, "\n") < 100 {
		t.Errorf("CSV suspiciously short: %d lines", strings.Count(out, "\n"))
	}
	for _, app := range []string{"C1", "C2", "C3"} {
		if !strings.Contains(out, app+",1,1,1,") {
			t.Errorf("CSV missing series for %s under (1,1,1)", app)
		}
	}
}

func TestRunWritesCSVToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig6.csv")
	var sb strings.Builder
	if err := run([]string{"-budget", "tiny", "-schedules", "1,1,1", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "app,schedule,t_s,y\n") {
		t.Error("file CSV header missing")
	}
	if !strings.Contains(sb.String(), "wrote "+path) {
		t.Errorf("stdout missing confirmation:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad schedule entry", []string{"-budget", "tiny", "-schedules", "1,x,1"}},
		{"zero burst", []string{"-budget", "tiny", "-schedules", "0,1,1"}},
		{"wrong length", []string{"-budget", "tiny", "-schedules", "1,1"}},
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

// TestRunRejectsUnknownBudget pins that an unknown -budget name is a usage
// error instead of running silently as the quick budget.
func TestRunRejectsUnknownBudget(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-budget", "nope"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `unknown budget "nope"`) {
		t.Errorf("-budget nope: err = %v, output:\n%s", err, sb.String())
	}
}
