package core

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// CachedEvaluations returns how many distinct points this framework has
// fully evaluated so far.
func (f *Framework) CachedEvaluations() int {
	return f.cache.Len()
}

func tinyBudget() ctrl.DesignOptions {
	var opt ctrl.DesignOptions
	opt.Swarm.Particles = 8
	opt.Swarm.Iterations = 8
	return opt
}

func newTestFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(apps.CaseStudy(), wcet.PaperPlatform(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestNewRunsWCETAnalysis(t *testing.T) {
	fw := newTestFramework(t)
	if len(fw.Timings) != 3 || len(fw.WCETResults) != 3 {
		t.Fatal("timings not populated")
	}
	// Table I numbers must be visible through the framework.
	if math.Abs(fw.Timings[0].ColdWCET-907.55e-6) > 1e-12 {
		t.Errorf("C1 cold WCET %g", fw.Timings[0].ColdWCET)
	}
	if fw.WCETResults[2].ReusedLines != 104 {
		t.Errorf("C3 reused lines %d", fw.WCETResults[2].ReusedLines)
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, wcet.PaperPlatform(), tinyBudget()); err == nil {
		t.Error("empty app list accepted")
	}
}

func TestEvaluateScheduleShape(t *testing.T) {
	fw := newTestFramework(t)
	ev, err := fw.EvaluateSchedule(sched.RoundRobin(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Apps) != 3 {
		t.Fatalf("apps: %d", len(ev.Apps))
	}
	if !ev.IdleFeasible {
		t.Error("round robin must be idle feasible")
	}
	// P_all is the weighted sum of per-app performances (Eq. 2).
	want := 0.0
	for i, ar := range ev.Apps {
		want += fw.Apps[i].Weight * ar.Performance
	}
	if math.Abs(ev.Pall-want) > 1e-12 {
		t.Errorf("Pall = %g, want weighted sum %g", ev.Pall, want)
	}
	for _, ar := range ev.Apps {
		if ar.Design == nil || ar.Design.Trajectory == nil {
			t.Fatalf("app %s missing design artifacts", ar.Name)
		}
		if len(ar.Timing.Periods) != 1 {
			t.Errorf("app %s: %d periods under round robin", ar.Name, len(ar.Timing.Periods))
		}
	}
}

func TestEvaluateScheduleMemoized(t *testing.T) {
	fw := newTestFramework(t)
	s := sched.Schedule{2, 1, 1}
	ev1, err := fw.EvaluateSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := fw.EvaluateSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if ev1 != ev2 {
		t.Error("second evaluation must return the cached object")
	}
	if fw.CachedEvaluations() != 1 {
		t.Errorf("cache size %d", fw.CachedEvaluations())
	}
}

func TestEvaluateIdleInfeasible(t *testing.T) {
	fw := newTestFramework(t)
	ev, err := fw.EvaluateSchedule(sched.Schedule{1, 30, 30})
	if err != nil {
		t.Fatal(err)
	}
	if ev.IdleFeasible || ev.Feasible {
		t.Error("starving schedule must be infeasible")
	}
	if ev.Pall >= 0 {
		t.Errorf("infeasible Pall = %g", ev.Pall)
	}
	if len(ev.Apps) != 0 {
		t.Error("idle-infeasible schedules must not run designs")
	}
}

func TestEvalFuncAdapter(t *testing.T) {
	fw := newTestFramework(t)
	out, err := fw.EvalFunc()(sched.RoundRobin(3))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := fw.EvaluateSchedule(sched.RoundRobin(3))
	if out.Pall != ev.Pall {
		t.Error("adapter result mismatch")
	}
}

func TestDesignSeedDeterministicAndDistinct(t *testing.T) {
	s1 := designSeed(sched.SharedPoint(sched.Schedule{1, 2, 3}), 0)
	s2 := designSeed(sched.SharedPoint(sched.Schedule{1, 2, 3}), 0)
	s3 := designSeed(sched.SharedPoint(sched.Schedule{1, 2, 3}), 1)
	s4 := designSeed(sched.SharedPoint(sched.Schedule{3, 2, 1}), 0)
	if s1 != s2 {
		t.Error("seed not deterministic")
	}
	if s1 == s3 || s1 == s4 {
		t.Error("seeds must differ across apps and schedules")
	}
	if s1 <= 0 {
		t.Error("seed must be positive")
	}
}

func TestEvaluationDeterministic(t *testing.T) {
	// Two separate frameworks with the same budget must agree exactly.
	fw1 := newTestFramework(t)
	fw2 := newTestFramework(t)
	s := sched.Schedule{2, 2, 2}
	ev1, err := fw1.EvaluateSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := fw2.EvaluateSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Pall != ev2.Pall {
		t.Errorf("non-deterministic evaluation: %g vs %g", ev1.Pall, ev2.Pall)
	}
	for i := range ev1.Apps {
		if ev1.Apps[i].Design.SettlingTime != ev2.Apps[i].Design.SettlingTime {
			t.Errorf("app %d settling differs", i)
		}
	}
}

func TestOptimizeHybridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid optimization is slow for -short")
	}
	fw := newTestFramework(t)
	res, err := search.Hybrid(fw.EvalFunc(), fw.Timings, []sched.Schedule{{1, 1, 1}}, search.Options{MaxM: 4, MaxSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FoundBest {
		t.Error("hybrid search found no feasible schedule")
	}
	if ok, _ := sched.IdleFeasible(fw.Timings, res.Best); !ok {
		t.Errorf("best %v violates idle constraint", res.Best)
	}
}

func TestReportGridKeepsSampledSettling(t *testing.T) {
	// Refining the dense output grid must not change the sampled settling
	// measurement (the sampling instants are schedule-determined).
	fwCoarse, err := New(apps.CaseStudy(), wcet.PaperPlatform(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	fwFine, err := New(apps.CaseStudy(), wcet.PaperPlatform(), tinyBudget())
	if err != nil {
		t.Fatal(err)
	}
	fwFine.ReportDtMax = 10e-6
	s := sched.Schedule{1, 1, 1}
	evC, err := fwCoarse.EvaluateSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	evF, err := fwFine.EvaluateSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evC.Apps {
		a, b := evC.Apps[i].Design.SettlingTime, evF.Apps[i].Design.SettlingTime
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("app %d: settling %g (design grid) vs %g (report grid)", i, a, b)
		}
	}
}
