package core

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

func tinyOpts() ctrl.DesignOptions {
	var opt ctrl.DesignOptions
	opt.Swarm.Particles = 4
	opt.Swarm.Iterations = 5
	return opt
}

func fourWayPlatform() wcet.Platform {
	return wcet.Platform{ClockHz: 20e6, Cache: cachesim.Config{
		Lines: 512, LineSize: 16, Ways: 4, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
	}}
}

// EvaluateJoint on a shared point must return the very same memoized result
// as EvaluateSchedule — the partitioning axis cannot even re-run the
// schedule-only pipeline.
func TestEvaluateJointSharedDelegates(t *testing.T) {
	fw, err := New(apps.CaseStudy(), wcet.PaperPlatform(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := sched.Schedule{2, 1, 1}
	plain, err := fw.EvaluateSchedule(m)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := fw.EvaluateJoint(sched.SharedPoint(m))
	if err != nil {
		t.Fatal(err)
	}
	if plain != joint {
		t.Error("shared joint evaluation did not delegate to the schedule cache")
	}
	if fw.CachedEvaluations() != 1 {
		t.Errorf("schedule cache holds %d entries, want 1", fw.CachedEvaluations())
	}
}

func TestEvaluateJointPartitioned(t *testing.T) {
	fw, err := New(apps.CaseStudy(), fourWayPlatform(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if fw.PartTimings.TotalWays() != 4 {
		t.Fatalf("partition table covers %d ways", fw.PartTimings.TotalWays())
	}
	j := sched.JointSchedule{M: sched.Schedule{1, 1, 1}, W: sched.Ways{2, 1, 1}}
	ev, err := fw.EvaluateJoint(j)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Ways.Equal(j.W) || !ev.Schedule.Equal(j.M) {
		t.Errorf("eval carries %v / %v, want %v", ev.Schedule, ev.Ways, j)
	}
	if !ev.IdleFeasible {
		t.Error("round-robin partitioned point idle-infeasible")
	}
	// Timings used must be the steady-state partition timings.
	for i, ar := range ev.Apps {
		want := fw.PartTimings.ByWays[j.W[i]-1][i]
		if len(ar.Timing.WCETs) == 0 || math.Abs(ar.Timing.WCETs[0]-want.ColdWCET) > 1e-15 {
			t.Errorf("app %d designed against WCET %v, want %v", i, ar.Timing.WCETs, want.ColdWCET)
		}
	}
	// Memoized: a second request returns the identical pointer.
	again, err := fw.EvaluateJoint(j.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if again != ev {
		t.Error("joint evaluation not memoized")
	}
	// Over-budget partitions are rejected loudly.
	if _, err := fw.EvaluateJoint(sched.JointSchedule{M: sched.Schedule{1, 1, 1}, W: sched.Ways{3, 1, 1}}); err == nil {
		t.Error("over-budget joint point accepted")
	}
}

// The joint searchers run end to end on the framework evaluator, and the
// shared subspace of the unbounded joint search matches search.Exhaustive bit
// for bit.
func TestOptimizeJointExhaustiveSharedSubspace(t *testing.T) {
	fw, err := New(apps.CaseStudy()[:2], wcet.PaperPlatform(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	joint, err := search.JointExact(search.NewJointCache(fw.JointEvalFunc()), fw.PartTimings, nil, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := search.Exhaustive(fw.EvalFunc(), fw.Timings, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !joint.FoundShared || !plain.FoundBest {
		t.Fatalf("found: joint shared=%v plain=%v", joint.FoundShared, plain.FoundBest)
	}
	if !joint.BestShared.M.Equal(plain.Best) ||
		math.Float64bits(joint.BestSharedValue) != math.Float64bits(plain.BestValue) {
		t.Errorf("joint shared optimum %v (%v) != schedule-only optimum %v (%v)",
			joint.BestShared, joint.BestSharedValue, plain.Best, plain.BestValue)
	}
	// 1-way platform: the whole joint box is the shared box.
	if joint.Evaluated != plain.Evaluated || !joint.Best.Shared() {
		t.Errorf("joint box %d (best %v), plain box %d", joint.Evaluated, joint.Best, plain.Evaluated)
	}
}
