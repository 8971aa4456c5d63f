package ctrl_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/wcet"
)

// TestDesignBoundAdmissibleCaseStudy checks the early-exit bound of the
// design cost on every case-study plant under several schedules of the
// paper platform: at every sampling instant it stays <= the exact score,
// and the cutoff cost is exact below its cutoff and >= it otherwise.
func TestDesignBoundAdmissibleCaseStudy(t *testing.T) {
	study := apps.CaseStudy()
	timings, _, err := apps.Timings(study, wcet.PaperPlatform())
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]ctrl.BoundCoverage{}
	for si, s := range []sched.Schedule{{1, 1, 1}, {2, 2, 2}, {3, 2, 3}} {
		der, err := sched.Derive(timings, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range study {
			cov, err := ctrl.CheckDesignBounds(a.Plant, der[i], a.Constraints(), int64(10*si+i+1), 40)
			if err != nil {
				t.Fatalf("%s under %v: %v", a.Name, s, err)
			}
			total[a.Name] = total[a.Name].Add(cov)
		}
	}
	for _, a := range study {
		cov := total[a.Name]
		t.Logf("%s: %+v", a.Name, cov)
		if cov.Settled == 0 || cov.Unsettled == 0 || cov.Saturated == 0 || cov.Cut == 0 {
			t.Errorf("%s: candidates miss a branch: %+v", a.Name, cov)
		}
	}
}
