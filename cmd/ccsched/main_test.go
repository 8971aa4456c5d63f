package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
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

// switchModes returns the string cases of run's `switch *mode` in main.go,
// so the help test follows the dispatch instead of a copied list.
func switchModes(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var modes []string
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		star, ok := sw.Tag.(*ast.StarExpr)
		if !ok {
			return true
		}
		if id, ok := star.X.(*ast.Ident); !ok || id.Name != "mode" {
			return true
		}
		for _, stmt := range sw.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					m, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					modes = append(modes, m)
				}
			}
		}
		return false
	})
	return modes
}

// TestHelpListsEveryMode: the -mode usage line must name every mode the
// dispatch switch accepts (compare, exhaustive, eval, wcet, timeline).
func TestHelpListsEveryMode(t *testing.T) {
	modes := switchModes(t)
	if len(modes) < 5 {
		t.Fatalf("found only %d modes in the switch: %v", len(modes), modes)
	}
	var sb strings.Builder
	if err := run([]string{"-h"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	var help string
	for i, l := range lines {
		if strings.TrimSpace(l) == "-mode string" && i+1 < len(lines) {
			help = lines[i+1]
		}
	}
	if help == "" {
		t.Fatalf("-h output has no -mode entry:\n%s", sb.String())
	}
	listed := map[string]bool{}
	for _, f := range strings.Split(strings.SplitN(help, "(default", 2)[0], "|") {
		listed[strings.TrimSpace(f)] = true
	}
	for _, m := range modes {
		if !listed[m] {
			t.Errorf("-mode help %q does not list mode %q", strings.TrimSpace(help), m)
		}
	}
}

// TestRunExhaustiveMode pins -mode exhaustive's whole report — Table I, the
// optimum and the full landscape with per-app settling times — byte for
// byte against the output recorded before the landscape was re-enumerated
// from the framework's memoized evaluations.
func TestRunExhaustiveMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "exhaustive", "-budget", "tiny", "-maxm", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/exhaustive_tiny_maxm2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("-mode exhaustive output differs from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
