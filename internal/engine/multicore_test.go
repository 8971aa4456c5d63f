package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/store"
)

// multicoreScenario is the canonical engine-level multicore fixture: the
// case study on the 4-way partitionable platform, full placement co-design
// over 2 cores with the retained exhaustive searchers.
func multicoreScenario() Scenario {
	return Scenario{
		Name: "mc", Seed: 1, Apps: apps.CaseStudy(), Platform: fourWayPlatform(),
		Objective: ObjectiveTiming, Exhaustive: true, MaxM: 6, Cores: 2,
	}
}

func TestMulticoreScenario(t *testing.T) {
	res, err := Run(multicoreScenario())
	if err != nil {
		t.Fatal(err)
	}
	mc := res.Multicore
	if mc == nil || res.MulticoreUniform == nil {
		t.Fatalf("multicore results missing: %v / %v", mc, res.MulticoreUniform)
	}
	if !mc.FoundBest || !mc.Enumerated {
		t.Fatalf("placement search incomplete: %+v", mc)
	}
	if mc.Cores != 2 || len(mc.PerCore) != 2 {
		t.Fatalf("core count: %+v", mc)
	}
	// Cores > 1 implies the joint axis, so the single-core comparison
	// baseline is present.
	if res.JointExhaustive == nil || !res.JointExhaustive.FoundBest {
		t.Fatal("single-core joint baseline missing")
	}
	// Each core has a private cache and strictly fewer gap contributors, so
	// the placement optimum must dominate the single-core joint optimum.
	if mc.BestValue < res.JointExhaustive.BestValue {
		t.Errorf("multicore optimum %.6f below single-core joint optimum %.6f",
			mc.BestValue, res.JointExhaustive.BestValue)
	}
	// The uniform split explores a subspace of the co-design box.
	if res.MulticoreUniform.BestValue > mc.BestValue {
		t.Errorf("uniform-split optimum %.6f exceeds co-design optimum %.6f",
			res.MulticoreUniform.BestValue, mc.BestValue)
	}
	// Evaluated aggregates the joint and core-point caches.
	if res.Evaluated <= res.JointExhaustive.Evaluated {
		t.Errorf("Evaluated %d does not include core-point evaluations", res.Evaluated)
	}
}

// TestMulticoreBranchBoundPinned is the engine-level equality pin: the
// branch-and-bound scenario must reproduce the plain exhaustive scenario's
// optima — single-core joint and placement — bit for bit, with strictly
// fewer evaluations recorded.
func TestMulticoreBranchBoundPinned(t *testing.T) {
	plain, err := Run(multicoreScenario())
	if err != nil {
		t.Fatal(err)
	}
	scn := multicoreScenario()
	scn.BranchBound = true
	bb, err := Run(scn)
	if err != nil {
		t.Fatal(err)
	}

	pex, bex := plain.JointExhaustive, bb.JointExhaustive
	if math.Float64bits(pex.BestValue) != math.Float64bits(bex.BestValue) || !bex.Best.Equal(pex.Best) {
		t.Errorf("joint optimum: bb %v (%v) != exhaustive %v (%v)",
			bex.Best, bex.BestValue, pex.Best, pex.BestValue)
	}
	if math.Float64bits(pex.BestSharedValue) != math.Float64bits(bex.BestSharedValue) ||
		!bex.BestShared.Equal(pex.BestShared) {
		t.Error("shared-subspace optimum differs under branch-and-bound")
	}
	if bex.Evaluated >= pex.Evaluated || bb.JointPruned == 0 {
		t.Errorf("joint branch-and-bound evaluated %d of %d (pruned %d): no cuts fired",
			bex.Evaluated, pex.Evaluated, bb.JointPruned)
	}

	pmc, bmc := plain.Multicore, bb.Multicore
	if math.Float64bits(pmc.BestValue) != math.Float64bits(bmc.BestValue) ||
		!reflect.DeepEqual(pmc.Assignment, bmc.Assignment) ||
		!reflect.DeepEqual(pmc.PerCore, bmc.PerCore) {
		t.Errorf("placement optimum differs:\nbb %+v\nex %+v", bmc, pmc)
	}
	if bmc.Evaluated > pmc.Evaluated {
		t.Errorf("placement branch-and-bound evaluated %d > %d", bmc.Evaluated, pmc.Evaluated)
	}
	if bmc.Evaluated == pmc.Evaluated && bmc.AssignmentsPruned == 0 && bmc.SubtreesPruned == 0 {
		t.Error("placement branch-and-bound pruned nothing")
	}
	// The bound cuts the uniform baseline's walks too, but not its optimum.
	if math.Float64bits(plain.MulticoreUniform.BestValue) != math.Float64bits(bb.MulticoreUniform.BestValue) {
		t.Error("uniform baseline differs between modes")
	}
}

// TestMulticoreSweepParallelMatchesSerial pins the multicore co-design
// bit-identical at any worker count (run under -race in CI): serial and
// parallel sweeps over Cores > 1 scenarios must produce deeply equal
// results, branch-and-bound included.
func TestMulticoreSweepParallelMatchesSerial(t *testing.T) {
	scns := make([]Scenario, 4)
	for i := range scns {
		scns[i] = Scenario{
			Seed:        int64(700 + i),
			NumApps:     3,
			Platform:    fourWayPlatform(),
			MaxM:        4,
			Cores:       2 + i%2,
			Exhaustive:  true,
			BranchBound: i%2 == 0,
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
			t.Errorf("scenario %d: parallel multicore result differs from serial", i)
		}
	}
}

// TestMulticoreCheckpointRoundTrip: a resumed multicore scenario must
// reproduce the placement results bit-identically from its checkpoint
// record.
func TestMulticoreCheckpointRoundTrip(t *testing.T) {
	scn := multicoreScenario()
	scn.BranchBound = true
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunWith(scn, RunConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunWith(scn, RunConfig{Store: st2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Fatal("scenario did not resume from its checkpoint record")
	}
	if !reflect.DeepEqual(resumed.Multicore, cold.Multicore) {
		t.Errorf("resumed placement result differs:\ncold    %+v\nresumed %+v", cold.Multicore, resumed.Multicore)
	}
	if !reflect.DeepEqual(resumed.MulticoreUniform, cold.MulticoreUniform) {
		t.Error("resumed uniform baseline differs")
	}
	if resumed.JointPruned != cold.JointPruned {
		t.Errorf("resumed JointPruned %d != %d", resumed.JointPruned, cold.JointPruned)
	}
	if math.Float64bits(resumed.BestValue) != math.Float64bits(cold.BestValue) {
		t.Error("resumed best value not bit-identical")
	}
}
