package search

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func testApps() []sched.AppTiming {
	return []sched.AppTiming{
		{Name: "C1", ColdWCET: 907.55e-6, WarmWCET: 452.15e-6, MaxIdle: 3.4e-3},
		{Name: "C2", ColdWCET: 645.25e-6, WarmWCET: 175.00e-6, MaxIdle: 3.9e-3},
		{Name: "C3", ColdWCET: 749.15e-6, WarmWCET: 234.35e-6, MaxIdle: 3.5e-3},
	}
}

// quadEval builds a smooth synthetic objective peaking at the target
// schedule; every schedule is feasible.
func quadEval(target sched.Schedule) EvalFunc {
	return func(s sched.Schedule) (Outcome, error) {
		v := 1.0
		for i := range s {
			d := float64(s[i] - target[i])
			v -= 0.05 * d * d
		}
		return Outcome{Pall: v, Feasible: true}, nil
	}
}

func TestHybridFindsPeak(t *testing.T) {
	apps := testApps()
	target := sched.Schedule{3, 2, 3}
	res, err := Hybrid(quadEval(target), apps, []sched.Schedule{{1, 1, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FoundBest || !res.Best.Equal(target) {
		t.Errorf("best = %v (found=%v), want %v", res.Best, res.FoundBest, target)
	}
	if math.Abs(res.BestValue-1) > 1e-12 {
		t.Errorf("best value %g", res.BestValue)
	}
}

func TestHybridMultiStartAgree(t *testing.T) {
	apps := testApps()
	target := sched.Schedule{3, 2, 3}
	res, err := Hybrid(quadEval(target), apps, []sched.Schedule{{4, 2, 2}, {1, 2, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs: %d", len(res.Runs))
	}
	for i, r := range res.Runs {
		if !r.Best.Equal(target) {
			t.Errorf("run %d best %v, want %v", i, r.Best, target)
		}
		if r.Evaluations <= 0 {
			t.Errorf("run %d evaluations %d", i, r.Evaluations)
		}
	}
}

func TestHybridEvaluationCountBelowExhaustive(t *testing.T) {
	apps := testApps()
	target := sched.Schedule{3, 2, 3}
	var evals int64
	counted := func(s sched.Schedule) (Outcome, error) {
		atomic.AddInt64(&evals, 1)
		return quadEval(target)(s)
	}
	res, err := Hybrid(counted, apps, []sched.Schedule{{1, 1, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exhaustive(quadEval(target), apps, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Evaluations >= ex.Evaluated {
		t.Errorf("hybrid used %d evals, exhaustive %d", res.Runs[0].Evaluations, ex.Evaluated)
	}
	if int(evals) != res.Runs[0].Evaluations {
		t.Errorf("reported %d evals, actually %d", res.Runs[0].Evaluations, evals)
	}
}

func TestHybridRespectsIdleConstraint(t *testing.T) {
	apps := testApps()
	// Reward enormous m1: the walk must stop at the idle-feasibility edge.
	greedy := func(s sched.Schedule) (Outcome, error) {
		return Outcome{Pall: float64(s[0]), Feasible: true}, nil
	}
	res, err := Hybrid(greedy, apps, []sched.Schedule{{1, 1, 1}}, Options{MaxM: 50})
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := sched.IdleFeasible(apps, res.Best)
	if !ok {
		t.Errorf("best %v violates idle constraint", res.Best)
	}
	// It must have pushed m1 to the feasibility boundary.
	next := res.Best.Clone()
	next[0]++
	ok, _ = sched.IdleFeasible(apps, next)
	if ok {
		t.Errorf("best %v is not at the m1 boundary", res.Best)
	}
}

func TestHybridRejectsInfeasibleStart(t *testing.T) {
	apps := testApps()
	if _, err := Hybrid(quadEval(sched.Schedule{2, 2, 2}), apps, []sched.Schedule{{1, 30, 30}}, Options{MaxM: 50}); err == nil {
		t.Error("infeasible start accepted")
	}
	if _, err := Hybrid(quadEval(sched.Schedule{2, 2, 2}), apps, []sched.Schedule{{1, 1}}, Options{}); err == nil {
		t.Error("wrong-length start accepted")
	}
	if _, err := Hybrid(quadEval(sched.Schedule{2, 2, 2}), apps, nil, Options{}); err == nil {
		t.Error("no starts accepted")
	}
}

func TestHybridToleranceEscapesPlateau(t *testing.T) {
	apps := testApps()
	// Objective with a small dip between start and optimum along m1:
	// values 0.5, 0.48, 1.0 for m1 = 1, 2, 3. Without tolerance the walk
	// stalls at m1=1; with tolerance 0.05 it crosses the dip.
	evalFn := func(s sched.Schedule) (Outcome, error) {
		v := map[int]float64{1: 0.5, 2: 0.48, 3: 1.0}[s[0]]
		if v == 0 {
			v = -1
		}
		// Penalize moving off (1,1) in the other dims so the walk focuses
		// on m1.
		v -= 0.2 * (float64(s[1]-1) + float64(s[2]-1))
		return Outcome{Pall: v, Feasible: true}, nil
	}
	noTol, err := Hybrid(evalFn, apps, []sched.Schedule{{1, 1, 1}}, Options{Tolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	if noTol.Best[0] != 1 {
		t.Errorf("without tolerance the dip should block: best %v", noTol.Best)
	}
	withTol, err := Hybrid(evalFn, apps, []sched.Schedule{{1, 1, 1}}, Options{Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if withTol.Best[0] != 3 {
		t.Errorf("tolerance should cross the dip: best %v", withTol.Best)
	}
}

func TestExhaustiveFindsGlobalOptimum(t *testing.T) {
	apps := testApps()
	target := sched.Schedule{2, 3, 2}
	res, err := Exhaustive(quadEval(target), apps, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FoundBest || !res.Best.Equal(target) {
		t.Errorf("best %v, want %v", res.Best, target)
	}
	if res.Evaluated != res.Feasible {
		t.Errorf("all synthetic outcomes feasible: %d vs %d", res.Evaluated, res.Feasible)
	}
	box, err := sched.EnumerateFeasible(apps, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(box) {
		t.Errorf("evaluated %d points of a %d-point box", res.Evaluated, len(box))
	}
}

func TestExhaustiveTracksInfeasible(t *testing.T) {
	apps := testApps()
	// Schedules with m1 >= 3 violate the settling constraint (synthetic).
	evalFn := func(s sched.Schedule) (Outcome, error) {
		return Outcome{Pall: float64(s[0]), Feasible: s[0] < 3}, nil
	}
	res, err := Exhaustive(evalFn, apps, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible >= res.Evaluated {
		t.Error("some schedules must be infeasible")
	}
	if res.Best[0] != 2 {
		t.Errorf("best feasible must have m1=2: %v", res.Best)
	}
}

func TestHybridPathRecordsMoves(t *testing.T) {
	apps := testApps()
	res, err := Hybrid(quadEval(sched.Schedule{3, 2, 3}), apps, []sched.Schedule{{1, 1, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := res.Runs[0].Path
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	if !path[0].Equal(sched.Schedule{1, 1, 1}) {
		t.Error("path must start at the start point")
	}
	for i := 1; i < len(path); i++ {
		diff := 0
		for j := range path[i] {
			d := path[i][j] - path[i-1][j]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		if diff != 1 {
			t.Errorf("step %d is not a unit move: %v -> %v", i, path[i-1], path[i])
		}
	}
}
