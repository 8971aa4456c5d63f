package wcet_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/race"
	"repro/internal/wcet"
)

// TestAnalyzeAllocs pins the allocation budget of one must-analysis of a
// case-study program on the paper platform (BenchmarkWCETAnalysis): the
// walk state is a value of three pointers, so cloning and joining it
// allocate only the abstract caches themselves.
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
	if allocs > 41 {
		t.Fatalf("wcet.Analyze allocates %g per call, budget 41", allocs)
	}
}
