package apps

import (
	"testing"

	"repro/internal/wcet"
)

// TestBackToBackSteadyState confirms that within a burst every execution
// after the second costs the same as the second (the model's Ewc(j) for all
// j >= 2 being a single warm value).
func TestBackToBackSteadyState(t *testing.T) {
	plat := wcet.PaperPlatform()
	for _, a := range CaseStudy() {
		runs := wcet.SimulateRuns(a.Program, plat.Cache, 6)
		for j := 2; j < len(runs); j++ {
			if runs[j] != runs[1] {
				t.Errorf("%s run %d: %d cycles, want steady %d", a.Name, j+1, runs[j], runs[1])
			}
		}
	}
}
