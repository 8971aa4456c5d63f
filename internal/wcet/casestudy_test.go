package wcet_test

// Schedule-level integration of the case study: the burst WCET model of
// Eq. (5) against one shared concrete cache that runs the applications'
// programs in schedule order.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/sched"
	"repro/internal/wcet"
)

// TestScheduleCacheSimulation validates the burst WCET model of Eq. (5) at
// the instruction level: executing the full schedule's task sequence on ONE
// shared cache must give exactly the analytical per-task timings — the
// first task of each burst pays the cold WCET (the other applications evict
// everything reusable in between; the programs' cache-set layouts are
// coordinated to guarantee it) and each later task of a burst pays the
// reduced warm WCET.
func TestScheduleCacheSimulation(t *testing.T) {
	plat := wcet.PaperPlatform()
	study := apps.CaseStudy()
	results := make([]*wcet.Result, len(study))
	for i, a := range study {
		r, err := wcet.Analyze(a.Program, plat)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}

	for _, s := range []sched.Schedule{{1, 1, 1}, {2, 2, 2}, {3, 2, 3}, {2, 1, 4}} {
		cache := cachesim.MustNew(plat.Cache)
		// Warm-up period: the very first burst of the very first period
		// starts from a truly empty cache, which is also "cold", so the
		// model applies from the start; run two full periods and check
		// every task.
		for period := 0; period < 2; period++ {
			for i, a := range study {
				for j := 0; j < s[i]; j++ {
					got := wcet.SimulateOn(a.Program, cache)
					want := results[i].WarmCycles
					if j == 0 {
						want = results[i].ColdCycles
					}
					if got != want {
						t.Errorf("schedule %v period %d %s task %d: %d cycles, want %d",
							s, period, a.Name, j+1, got, want)
					}
				}
			}
		}
	}
}

// TestCrossAppEviction verifies the layout coordination directly: after any
// other application's program runs, an application's first task is fully
// cold again (no partial reuse carries across applications).
func TestCrossAppEviction(t *testing.T) {
	plat := wcet.PaperPlatform()
	study := apps.CaseStudy()
	for i, victim := range study {
		res, err := wcet.Analyze(victim.Program, plat)
		if err != nil {
			t.Fatal(err)
		}
		for k, other := range study {
			if k == i {
				continue
			}
			// Pair (i, k) alone does not have to evict everything; the
			// paper's schedule always runs BOTH other apps in between.
			_ = other
		}
		cache := cachesim.MustNew(plat.Cache)
		wcet.SimulateOn(victim.Program, cache) // warm the cache with victim
		for k, other := range study {
			if k != i {
				wcet.SimulateOn(other.Program, cache)
			}
		}
		got := wcet.SimulateOn(victim.Program, cache)
		if got != res.ColdCycles {
			t.Errorf("%s after the other two apps: %d cycles, want cold %d",
				victim.Name, got, res.ColdCycles)
		}
	}
}
