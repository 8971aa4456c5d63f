package search_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/search"
)

// caseStudyTable is the joint timing table of the paper's case study on
// the 8-way 512-line partition platform, with the apps' weights.
func caseStudyTable(t testing.TB) (sched.PartitionTimings, []float64) {
	t.Helper()
	study := apps.CaseStudy()
	plat := exp.PartitionPlatforms()[3].Platform
	pt, _, err := apps.Table(study, plat)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, len(study))
	for i, a := range study {
		weights[i] = a.Weight
	}
	return pt, weights
}

// allocsPerPoint runs search (which returns the points it visited) and
// returns its allocations per visited point.
func allocsPerPoint(t *testing.T, search func() int) float64 {
	t.Helper()
	points := search()
	if points == 0 {
		t.Fatal("search visited no point")
	}
	return testing.AllocsPerRun(5, func() { search() }) / float64(points)
}

// TestExactSearchAllocsPerPoint pins the per-point allocation budgets of
// the exact searcher, without a bound and with one, on the case-study table
// under the timing objective. Each run includes building its cache (and,
// for the placement search, its placements and per-subset views); the
// placement search's points are those of the co-design and its uniform
// baseline together, as one call returns both. What is left per point is
// the amortized growth of the cache's maps and the clones of new
// incumbents. Before points were packed into fixed-size keys and streamed,
// each point cost several allocations (string keys, listed boxes,
// per-point timing vectors and sub-tables). The case names keep the mode
// each one measures: "Exhaustive" without a bound, "BranchBound" with one
// (the trivial bound, which cuts almost nothing, so the traversal visits
// the whole box: the timing bound leaves too few points to amortize the
// run's fixed cost over).
func TestExactSearchAllocsPerPoint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxM = 6
	pt, weights := caseStudyTable(t)
	eval := engine.JointTimingEval(pt, weights)
	multicore := func(bound search.Bounder) (int, error) {
		cache := search.NewMulticoreCache(engine.MulticoreTimingEval(pt, weights))
		co, uniform, err := search.MulticoreExact(cache, pt, 2, maxM, bound)
		if err != nil {
			return 0, err
		}
		return co.Evaluated + uniform.Evaluated, nil
	}
	cases := []struct {
		name   string
		budget float64
		run    func() (int, error)
	}{
		{"JointExhaustiveCached", 0.1, func() (int, error) {
			r, err := search.JointExact(search.NewJointCache(eval), pt, nil, maxM, 1)
			return r.Evaluated, err
		}},
		{"JointBranchBound", 0.1, func() (int, error) {
			r, err := search.JointExact(search.NewJointCache(eval), pt, search.TrivialBounder(weights), maxM, 1)
			return r.Evaluated, err
		}},
		{"MulticoreExhaustive", 0.3, func() (int, error) { return multicore(nil) }},
		{"MulticoreBranchBound", 0.3, func() (int, error) { return multicore(search.TrivialBounder(weights)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allocsPerPoint(t, func() int {
				n, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				return n
			})
			t.Logf("%.4f allocs per point", got)
			if got > tc.budget {
				t.Errorf("%.4f allocs per point, budget %.2f", got, tc.budget)
			}
		})
	}
}
