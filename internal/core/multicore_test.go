package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// multicore runs the placement search over the framework's core points.
func multicore(t *testing.T, fw *Framework, nCores, maxM int, bound search.Bounder) (co, uniform *search.MulticoreResult) {
	t.Helper()
	co, uniform, err := search.MulticoreExact(search.NewMulticoreCache(fw.MulticoreEvalFunc()), fw.PartTimings, nCores, maxM, bound)
	if err != nil {
		t.Fatal(err)
	}
	return co, uniform
}

// TestCoreAssignmentValid: the core point evaluator checks the core's share
// of the placement before evaluating anything. A nonempty, strictly
// ascending subset of the framework's applications is accepted; subsets the
// placement search never produces are errors.
func TestCoreAssignmentValid(t *testing.T) {
	fw := newTestFramework(t)
	eval := fw.MulticoreEvalFunc()
	if _, err := eval(search.CorePoint{Apps: []int{1}, Point: sched.JointSchedule{M: sched.Schedule{1}}}); err != nil {
		t.Errorf("valid core assignment rejected: %v", err)
	}
	for _, subset := range [][]int{
		nil,     // core hosts no application
		{2, 0},  // not ascending
		{0, 0},  // an application twice
		{0, 3},  // application out of range
		{-1, 1}, // negative application index
	} {
		if _, err := eval(search.CorePoint{Apps: subset, Point: sched.JointSchedule{M: sched.Schedule{1, 1}}}); err == nil {
			t.Errorf("core assignment %v accepted", subset)
		}
	}
}

// TestCoreView: a core point evaluates on the core's view of the framework
// exactly as a framework of its applications alone evaluates the point,
// bit for bit: the timing rows are the parent's and the design seeds
// follow the local application index. Partitions that do not fit the
// core's cache are errors.
func TestCoreView(t *testing.T) {
	fw, err := New(apps.CaseStudy(), fourWayPlatform(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	alone, err := New([]apps.App{fw.Apps[0], fw.Apps[2]}, fw.Platform, fw.DesignOpt)
	if err != nil {
		t.Fatal(err)
	}
	eval := fw.MulticoreEvalFunc()
	for _, j := range []sched.JointSchedule{
		{M: sched.Schedule{1, 2}},
		{M: sched.Schedule{2, 1}, W: sched.Ways{3, 1}},
	} {
		got, err := eval(search.CorePoint{Apps: []int{0, 2}, Point: j})
		if err != nil {
			t.Fatal(err)
		}
		want, err := outcome(alone.EvaluateJoint(j))
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible || math.Float64bits(got.Pall) != math.Float64bits(want.Pall) {
			t.Errorf("%v: core point %+v, framework of the subset %+v", j, got, want)
		}
	}
	bad := search.CorePoint{Apps: []int{0, 2}, Point: sched.JointSchedule{M: sched.Schedule{1, 1}, W: sched.Ways{4, 1}}}
	if _, err := eval(bad); err == nil {
		t.Errorf("core point %v accepted", bad)
	}
}

// TestOptimizeMulticore pins the design-objective placement search: it
// completes on the case study, and the co-design optimum is at least the
// single-core round-robin P_all (a core with fewer apps has a shorter
// schedule period, so per-app performance should not degrade versus one
// shared core) and at least the uniform baseline's.
func TestOptimizeMulticore(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore optimization is slow for -short")
	}
	fw := newTestFramework(t)
	co, uniform := multicore(t, fw, 2, 3, nil)
	if !co.Enumerated || co.Assignments != 3 {
		t.Fatalf("search enumerated %v, %d placements; want all 3", co.Enumerated, co.Assignments)
	}
	if !co.FoundBest || len(co.PerCore) != 2 {
		t.Fatalf("per-core results missing: found %v, %d cores", co.FoundBest, len(co.PerCore))
	}
	single, err := fw.EvaluateSchedule(sched.RoundRobin(3))
	if err != nil {
		t.Fatal(err)
	}
	if co.BestValue < single.Pall-0.05 {
		t.Errorf("multicore Pall %.4f unexpectedly below single-core %.4f", co.BestValue, single.Pall)
	}
	if uniform.FoundBest && uniform.BestValue > co.BestValue {
		t.Errorf("uniform optimum %v above co-design optimum %v", uniform.BestValue, co.BestValue)
	}
}

// TestOptimizeMulticoreRejectsBadAssignment: the placement search over the
// framework rejects core counts no placement of its applications can fill
// (no cores, or more cores than applications, which leaves a core empty)
// and an empty schedule range, before evaluating any core point.
func TestOptimizeMulticoreRejectsBadAssignment(t *testing.T) {
	fw := newTestFramework(t)
	for _, bad := range []struct{ nCores, maxM int }{
		{0, 3}, {-1, 3}, {4, 3}, {2, 0},
	} {
		evals := 0
		eval := fw.MulticoreEvalFunc()
		cache := search.NewMulticoreCache(func(p search.CorePoint) (search.Outcome, error) {
			evals++
			return eval(p)
		})
		if _, _, err := search.MulticoreExact(cache, fw.PartTimings, bad.nCores, bad.maxM, nil); err == nil {
			t.Errorf("%d cores, maxM %d accepted", bad.nCores, bad.maxM)
		}
		if evals != 0 {
			t.Errorf("%d cores, maxM %d: %d core points evaluated before the error", bad.nCores, bad.maxM, evals)
		}
	}
}

// TestOptimizeMulticoreCoDesignInfeasible pins the no-feasible-point
// outcome: when no core can meet its idle budget both searches complete
// without error and report no placement, rather than a partial one.
func TestOptimizeMulticoreCoDesignInfeasible(t *testing.T) {
	applications := apps.CaseStudy()
	for i := range applications {
		applications[i].MaxIdle = 1e-9 // no schedule can meet this idle budget
	}
	fw, err := New(applications, wcet.PaperPlatform(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	co, uniform := multicore(t, fw, 2, 3, nil)
	for _, res := range []*search.MulticoreResult{co, uniform} {
		if res.FoundBest || res.Assignment != nil || res.PerCore != nil {
			t.Errorf("infeasible taskset reported a placement: %+v", res)
		}
		if !math.IsInf(res.BestValue, -1) {
			t.Errorf("BestValue = %v, want -Inf", res.BestValue)
		}
	}
}

// TestOptimizeMulticoreCoDesign: on the design objective, the search with
// the always-admissible weight bound and the one without agree bit for bit,
// uniform baseline included.
func TestOptimizeMulticoreCoDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore co-design is slow for -short")
	}
	fw := newTestFramework(t)
	weights := make([]float64, len(fw.Apps))
	for i, a := range fw.Apps {
		weights[i] = a.Weight
	}
	ex, exUni := multicore(t, fw, 2, 2, nil)
	bb, bbUni := multicore(t, fw, 2, 2, search.TrivialBounder(weights))
	if !ex.FoundBest || !bb.FoundBest {
		t.Fatalf("searches incomplete: ex %v bb %v", ex.FoundBest, bb.FoundBest)
	}
	if math.Float64bits(ex.BestValue) != math.Float64bits(bb.BestValue) ||
		!reflect.DeepEqual(ex.Assignment, bb.Assignment) || !reflect.DeepEqual(ex.PerCore, bb.PerCore) {
		t.Errorf("branch-and-bound %v %v != exhaustive %v %v", bb.Assignment, bb.BestValue, ex.Assignment, ex.BestValue)
	}
	if !reflect.DeepEqual(exUni, bbUni) {
		t.Errorf("uniform baseline depends on the co-design's bound:\nbb %+v\nex %+v", bbUni, exUni)
	}
}
