package search

import (
	"math"
	"testing"

	"repro/internal/sched"
)

// jointTestTimings is a 3-app taskset on a 4-way cache where partitioning
// pays: the shared model restarts cold every burst, a 2-way partition is as
// warm as the shared steady state with no cold start at all.
func jointTestTimings() sched.PartitionTimings {
	apps := testApps()
	flatten := func(scale float64) []sched.AppTiming {
		out := make([]sched.AppTiming, len(apps))
		for i, a := range apps {
			w := a.WarmWCET * scale
			out[i] = sched.AppTiming{Name: a.Name, ColdWCET: w, WarmWCET: w, MaxIdle: a.MaxIdle}
		}
		return out
	}
	return sched.PartitionTimings{
		Shared: apps,
		ByWays: [][]sched.AppTiming{flatten(2.0), flatten(1.0), flatten(1.0), flatten(1.0)},
	}
}

// jointQuadEval peaks at a target joint point: a quadratic bowl over the
// schedule plus a bonus for matching the target partition.
func jointQuadEval(target sched.JointSchedule) JointEvalFunc {
	return func(j sched.JointSchedule) (Outcome, error) {
		v := 1.0
		for i := range j.M {
			d := float64(j.M[i] - target.M[i])
			v -= 0.05 * d * d
		}
		if len(target.W) > 0 {
			if j.Shared() {
				v -= 0.5
			} else {
				for i := range j.W {
					d := float64(j.W[i] - target.W[i])
					v -= 0.03 * d * d
				}
			}
		}
		return Outcome{Pall: v, Feasible: true}, nil
	}
}

func TestJointHybridFindsPartitionedPeak(t *testing.T) {
	pt := jointTestTimings()
	target := sched.JointSchedule{M: sched.Schedule{2, 2, 2}, W: sched.Ways{2, 1, 1}}
	starts := []sched.JointSchedule{
		{M: sched.Schedule{1, 1, 1}, W: sched.Ways{1, 1, 1}},
	}
	res, err := JointHybrid(jointQuadEval(target), pt, starts, JointOptions{MaxM: 6})
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

func TestJointHybridSharedStartStaysShared(t *testing.T) {
	// From a shared start the walk has no partition moves; it must behave
	// exactly like the schedule-only ascent on the shared timings.
	pt := jointTestTimings()
	target := sched.SharedPoint(sched.Schedule{3, 2, 3})
	res, err := JointHybrid(jointQuadEval(target), pt, []sched.JointSchedule{sched.SharedPoint(sched.Schedule{1, 1, 1})}, JointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Shared() || !res.Best.M.Equal(target.M) {
		t.Errorf("best = %v, want shared %v", res.Best, target.M)
	}
	for _, p := range res.Runs[0].Path {
		if !p.Shared() {
			t.Errorf("shared walk visited partitioned point %v", p)
		}
	}
}

func TestJointExhaustiveDominatesShared(t *testing.T) {
	pt := jointTestTimings()
	// An objective preferring partitioned points: the joint optimum must
	// beat the shared optimum, and BestShared must equal the schedule-only
	// exhaustive result on the shared timings.
	target := sched.JointSchedule{M: sched.Schedule{2, 2, 2}, W: sched.Ways{2, 1, 1}}
	eval := jointQuadEval(target)
	res, err := JointExact(NewJointCache(eval), pt, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FoundBest || !res.FoundShared {
		t.Fatalf("found: joint=%v shared=%v", res.FoundBest, res.FoundShared)
	}
	if !res.Best.Equal(target) {
		t.Errorf("joint best %v, want %v", res.Best, target)
	}
	if res.BestValue <= res.BestSharedValue {
		t.Errorf("joint best %.4f does not beat shared best %.4f", res.BestValue, res.BestSharedValue)
	}

	sharedEval := func(s sched.Schedule) (Outcome, error) { return eval(sched.SharedPoint(s)) }
	ex, err := Exhaustive(sharedEval, pt.Shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BestShared.M.Equal(ex.Best) ||
		math.Float64bits(res.BestSharedValue) != math.Float64bits(ex.BestValue) {
		t.Errorf("shared-subspace optimum %v (%.6f) != schedule-only optimum %v (%.6f)",
			res.BestShared, res.BestSharedValue, ex.Best, ex.BestValue)
	}
}

func TestJointExhaustiveParallelMatchesSerial(t *testing.T) {
	pt := jointTestTimings()
	target := sched.JointSchedule{M: sched.Schedule{2, 3, 2}, W: sched.Ways{1, 2, 1}}
	eval := jointQuadEval(target)
	serial, err := enumerate(NewJointCache(eval).Get, pt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := JointExact(NewJointCache(eval), pt, nil, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Evaluated != parallel.Evaluated || serial.Feasible != parallel.Feasible ||
		!serial.Best.Equal(parallel.Best) ||
		math.Float64bits(serial.BestValue) != math.Float64bits(parallel.BestValue) ||
		!serial.BestShared.Equal(parallel.BestShared) {
		t.Errorf("parallel joint exhaustive diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

func TestJointHybridInfeasibleStartRejected(t *testing.T) {
	pt := jointTestTimings()
	eval := jointQuadEval(sched.SharedPoint(sched.Schedule{1, 1, 1}))
	_, err := JointHybrid(eval, pt, []sched.JointSchedule{
		{M: sched.Schedule{1, 1, 1}, W: sched.Ways{3, 1, 1}}, // 5 > 4 ways
	}, JointOptions{})
	if err == nil {
		t.Error("over-budget start accepted")
	}
}
