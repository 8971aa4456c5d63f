package wcet_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/race"
	"repro/internal/wcet"
)

// analysisAllocs is the allocation budget of one must-analysis walk: the
// walker, one block of cost vectors, three pooled abstract states (the
// incoming state, a branch arm's copy and a loop iteration's copy; every
// later copy reuses a dead one) and the result.
const analysisAllocs = 12

// TestAnalyzeAllocs pins the allocation budget of one must-analysis of a
// case-study program on the paper platform (BenchmarkWCETAnalysis): the
// walk draws its states and cost vectors from per-analysis pools, so its
// allocations do not grow with the number of branches, loop iterations or
// fixpoint passes.
func TestAnalyzeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prog := apps.CaseStudy()[0].Program
	plat := wcet.PaperPlatform()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := wcet.Analyze(prog, plat); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > analysisAllocs {
		t.Fatalf("wcet.Analyze allocates %g per call, budget %d", allocs, analysisAllocs)
	}
}

// TestAnalyzeAllWaysAllocs pins that pricing all eight way counts of
// 8way-512 in one walk (BenchmarkWCETAnalysisAllWays) stays within the
// budget of a single-way analysis: the way counts share the walk, its
// states and its pools.
func TestAnalyzeAllWaysAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	prog := apps.CaseStudy()[0].Program
	plat := wcet.Platform{ClockHz: 20e6, Cache: cachesim.Config{
		Lines: 512, LineSize: 16, Ways: 8, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
	}}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := wcet.Analyze(prog, plat); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > analysisAllocs {
		t.Fatalf("wcet.Analyze allocates %g per call on 8way-512, budget %d", allocs, analysisAllocs)
	}
}
