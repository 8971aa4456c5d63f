package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/sched"
	"repro/internal/wcet"
)

func fourWayPlatform() wcet.Platform {
	return wcet.Platform{ClockHz: 20e6, Cache: cachesim.Config{
		Lines: 512, LineSize: 16, Ways: 4, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
	}}
}

// TestJointDisabledBitIdentical is the partitioning-off guarantee: on a
// platform with no partitionable ways (the paper's direct-mapped cache) the
// joint scenario degenerates to the shared subspace, and its optimum —
// schedule and value bits — must match the plain schedule-only scenario's.
func TestJointDisabledBitIdentical(t *testing.T) {
	base := Scenario{
		Name: "guard", Seed: 1, Apps: apps.CaseStudy(),
		Platform: wcet.PaperPlatform(), Objective: ObjectiveTiming,
		Exhaustive: true, MaxM: 6,
	}
	legacy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	joint := base
	joint.Partitioned = true
	jres, err := Run(joint)
	if err != nil {
		t.Fatal(err)
	}
	if !jres.BestJoint.Shared() {
		t.Fatalf("joint best %v is partitioned on a 1-way cache", jres.BestJoint)
	}
	if !jres.Best.Equal(legacy.Best) {
		t.Errorf("best schedule: joint %v, legacy %v", jres.Best, legacy.Best)
	}
	if math.Float64bits(jres.BestValue) != math.Float64bits(legacy.BestValue) {
		t.Errorf("best value not bit-identical: joint %v, legacy %v", jres.BestValue, legacy.BestValue)
	}
	// The shared timing tasksets must agree exactly too.
	if !reflect.DeepEqual(jres.Timings, legacy.Timings) || !reflect.DeepEqual(jres.Weights, legacy.Weights) {
		t.Error("joint scenario drew a different taskset than the legacy scenario")
	}
	// And the exhaustive passes agree: every joint point is a shared one.
	if jres.JointExhaustive.Evaluated != legacy.Exhaustive.Evaluated {
		t.Errorf("box sizes differ: joint %d, legacy %d",
			jres.JointExhaustive.Evaluated, legacy.Exhaustive.Evaluated)
	}
	if math.Float64bits(jres.JointExhaustive.BestSharedValue) != math.Float64bits(legacy.Exhaustive.BestValue) {
		t.Error("shared-subspace optimum not bit-identical to the legacy exhaustive optimum")
	}
}

// TestJointBeatsSharedOnPartitionablePlatform: on the 4-way 512-line
// variant the joint optimum must strictly beat the schedule-only optimum
// for the case study (the partitioned case-study acceptance property,
// engine-level).
func TestJointBeatsSharedOnPartitionablePlatform(t *testing.T) {
	res, err := Run(Scenario{
		Name: "4way", Seed: 1, Apps: apps.CaseStudy(), Platform: fourWayPlatform(),
		Objective: ObjectiveTiming, Partitioned: true, Exhaustive: true, MaxM: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.JointExhaustive
	if ex == nil || !ex.FoundBest || !ex.FoundShared {
		t.Fatalf("exhaustive joint pass incomplete: %+v", ex)
	}
	if ex.Best.Shared() {
		t.Errorf("joint optimum %v is unpartitioned", ex.Best)
	}
	if ex.BestValue <= ex.BestSharedValue {
		t.Errorf("joint optimum %.4f does not beat schedule-only optimum %.4f",
			ex.BestValue, ex.BestSharedValue)
	}
	if !res.BestJoint.Equal(ex.Best) || !res.Best.Equal(ex.Best.M) {
		t.Errorf("result best %v / %v out of sync with exhaustive %v", res.BestJoint, res.Best, ex.Best)
	}
}

// TestRandomPartitionTasksetMatchesRandomTaskset: the partitioned draw must
// consume the rng identically, so the shared taskset and weights are bit
// for bit the ones RandomTaskset produces — the scenario axis cannot
// perturb unpartitioned sweeps.
func TestRandomPartitionTasksetMatchesRandomTaskset(t *testing.T) {
	scn := Scenario{Seed: 42, NumApps: 3, Platform: fourWayPlatform()}
	timings, weights, err := RandomTaskset(rand.New(rand.NewSource(99)), scn)
	if err != nil {
		t.Fatal(err)
	}
	pt, pweights, err := RandomPartitionTaskset(rand.New(rand.NewSource(99)), scn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pt.Shared, timings) || !reflect.DeepEqual(pweights, weights) {
		t.Errorf("partitioned draw diverged:\nshared  %+v\nlegacy  %+v", pt.Shared, timings)
	}
	if pt.TotalWays() != 4 {
		t.Fatalf("table covers %d ways", pt.TotalWays())
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	full := pt.ByWays[3]
	for i := range full {
		if full[i].ColdWCET != full[i].WarmWCET {
			t.Errorf("app %d: partitioned timing not steady state", i)
		}
		// Owning the whole cache must reproduce the shared warm bound.
		if math.Abs(full[i].WarmWCET-timings[i].WarmWCET) > 1e-15 {
			t.Errorf("app %d: full-ways warm %.3g != shared warm %.3g",
				i, full[i].WarmWCET, timings[i].WarmWCET)
		}
	}
	// Every per-way row carries the shared row's name and idle budget: the
	// budgets are drawn after the analysis and written into each row.
	for w, row := range pt.ByWays {
		for i := range row {
			if row[i].Name != timings[i].Name || row[i].MaxIdle != timings[i].MaxIdle {
				t.Errorf("%d ways, app %d: %+v, shared %+v", w+1, i, row[i], timings[i])
			}
		}
	}

	// Way partitions are a single-level axis: an L2 platform is rejected.
	l2 := scn
	l2.Platform.Hier = cachesim.Hierarchy{L2: cachesim.Config{
		Lines: 2048, LineSize: 16, Ways: 4, Policy: cachesim.LRU, HitCycles: 10, MissCycles: 100,
	}}
	if _, _, err := RandomPartitionTaskset(rand.New(rand.NewSource(99)), l2); err == nil {
		t.Error("partitioned taskset on an L2 platform: want an error")
	}
}

// TestJointSweepParallelMatchesSerial extends the engine's determinism
// guarantee to the partitioned axis (run under -race in CI).
func TestJointSweepParallelMatchesSerial(t *testing.T) {
	platforms := []wcet.Platform{wcet.PaperPlatform(), fourWayPlatform()}
	scns := make([]Scenario, 6)
	for i := range scns {
		scns[i] = Scenario{
			Seed:        int64(300 + i),
			NumApps:     2 + i%2,
			Platform:    platforms[i%2],
			MaxM:        4,
			Partitioned: true,
			Exhaustive:  i%2 == 0,
			Workers:     2,
		}
	}
	serial, err := Sweep(Config{Workers: 1}, scns)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(Config{Workers: 6}, scns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("scenario %d: parallel joint result differs from serial", i)
		}
	}
}

// TestJointStarts covers the start-lifting rules: shared starts always
// carry over; partitioned twins appear only when the platform has enough
// ways, falling back to round robin when the twin is infeasible.
func TestJointStarts(t *testing.T) {
	mk := func(cold, warm, idle float64) sched.AppTiming {
		return sched.AppTiming{Name: "A", ColdWCET: cold, WarmWCET: warm, MaxIdle: idle}
	}
	pt := sched.PartitionTimings{
		Shared: []sched.AppTiming{mk(10e-6, 4e-6, 200e-6), mk(8e-6, 3e-6, 200e-6)},
		ByWays: [][]sched.AppTiming{
			{mk(9e-6, 9e-6, 200e-6), mk(7e-6, 7e-6, 200e-6)},
			{mk(5e-6, 5e-6, 200e-6), mk(4e-6, 4e-6, 200e-6)},
		},
	}
	starts := JointStarts(pt, []sched.Schedule{{2, 2}})
	if len(starts) != 2 {
		t.Fatalf("starts = %v", starts)
	}
	if !starts[0].Shared() || !starts[0].M.Equal(sched.Schedule{2, 2}) {
		t.Errorf("first start %v not the shared lift", starts[0])
	}
	if starts[1].Shared() || !starts[1].W.Equal(sched.Ways{1, 1}) {
		t.Errorf("second start %v not the even-partition twin", starts[1])
	}

	// Single-way platform: no partitioned starts at all.
	pt1 := sched.PartitionTimings{Shared: pt.Shared, ByWays: pt.ByWays[:1]}
	starts = JointStarts(pt1, []sched.Schedule{{1, 1}})
	if len(starts) != 1 || !starts[0].Shared() {
		t.Errorf("single-way starts = %v", starts)
	}
}

// TestPartitionedDuplicateStartsWalkOnce: a partitioned scenario whose
// start list repeats a schedule walks each distinct lifted start once, its
// shared-cache point and its partitioned twin alike; a repeated start would
// otherwise add a phantom zero-evaluation walk and inflate the cache hits.
func TestPartitionedDuplicateStartsWalkOnce(t *testing.T) {
	res, err := Run(Scenario{
		Name: "dups", Seed: 16, MaxM: 3, Apps: apps.CaseStudy(), Platform: fourWayPlatform(),
		Partitioned: true, StartList: []sched.Schedule{{2, 2, 2}, {2, 2, 2}, {1, 1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	shared := 0
	for _, run := range res.JointHybrid.Runs {
		if seen[run.Start.Key()] {
			t.Errorf("start %v walked twice", run.Start)
		}
		seen[run.Start.Key()] = true
		if run.Start.Shared() {
			shared++
		}
	}
	if shared != 2 || len(res.JointHybrid.Runs) == shared {
		t.Errorf("%d walks, %d of them shared, want one per distinct start: 2 shared plus their twins", len(res.JointHybrid.Runs), shared)
	}
}
