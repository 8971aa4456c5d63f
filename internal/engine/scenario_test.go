package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/store"
)

// sporadicScenarios builds a small timing sweep under the given arrival
// model, cycling every platform variant (including the L1+L2 hierarchy).
func sporadicScenarios(arr sched.Arrival) []Scenario {
	platforms := PlatformVariants()
	scns := make([]Scenario, 6)
	for i := range scns {
		scns[i] = Scenario{
			Seed:       int64(300 + i),
			NumApps:    2 + i%3,
			Platform:   platforms[i%len(platforms)],
			Arrival:    arr,
			MaxM:       4,
			Starts:     2,
			Exhaustive: true,
			Workers:    2,
		}
	}
	return scns
}

// TestSporadicZeroJitterMatchesPeriodic is the metamorphic pin on the
// arrival axis: requesting sporadic arrivals with zero jitter must
// reproduce the periodic engine bit-identically — every objective value,
// checkpoint record, and sweep report — at multiple worker counts (run
// under -race in CI). The engine normalizes that case back to the periodic
// evaluator, so no float accumulation from the event loop can leak in.
func TestSporadicZeroJitterMatchesPeriodic(t *testing.T) {
	periodic, err := Sweep(Config{Workers: 1}, sporadicScenarios(sched.Arrival{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		zeroJitter := sporadicScenarios(sched.Arrival{Model: sched.ArrivalSporadic, Seed: 99})
		got, err := Sweep(Config{Workers: workers}, zeroJitter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, periodic) {
			t.Fatalf("workers=%d: zero-jitter sporadic sweep differs from periodic", workers)
		}
	}

	// Checkpoints: records written by a periodic sweep must be found (and
	// resumed from) by the zero-jitter sporadic sweep — same result keys.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(Config{Workers: 2, Store: st}, sporadicScenarios(sched.Arrival{})); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(Config{Workers: 2, Store: st2, Resume: true},
		sporadicScenarios(sched.Arrival{Model: sched.ArrivalSporadic}))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resumed {
		if !r.Resumed {
			t.Errorf("scenario %d recomputed: zero-jitter sporadic missed the periodic checkpoint", i)
		}
		if s, p := summarize(t, r), summarize(t, periodic[i]); s != p {
			t.Errorf("scenario %d resumed summary differs:\n got %+v\nwant %+v", i, s, p)
		}
	}
}

// TestSporadicSweepParallelMatchesSerial extends the determinism guarantee
// to jittered arrivals: the heap-driven timeline is seeded, so parallel,
// serial, and store-resumed sweeps all agree bit-for-bit.
func TestSporadicSweepParallelMatchesSerial(t *testing.T) {
	arr := sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.2, Seed: 7, Cycles: 32}
	serial, err := Sweep(Config{Workers: 1}, sporadicScenarios(arr))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(Config{Workers: 8}, sporadicScenarios(arr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel sporadic sweep differs from serial")
	}
	// Jitter must actually change results relative to periodic on at least
	// one scenario — otherwise the axis is dead.
	periodic, err := Sweep(Config{Workers: 1}, sporadicScenarios(sched.Arrival{}))
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range serial {
		if serial[i].BestValue != periodic[i].BestValue {
			changed = true
		}
	}
	if !changed {
		t.Error("0.2 jitter left every scenario's best value untouched")
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(Config{Workers: 2, Store: st}, sporadicScenarios(arr)); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(Config{Workers: 2, Store: st2, Resume: true}, sporadicScenarios(arr))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resumed {
		if !r.Resumed {
			t.Errorf("scenario %d recomputed on resume", i)
		}
		if s, p := summarize(t, r), summarize(t, serial[i]); s != p {
			t.Errorf("scenario %d resumed summary differs:\n got %+v\nwant %+v", i, s, p)
		}
	}
}

// TestScenarioAxisRejections: invalid axis combinations fail loudly at
// scenario validation, not deep inside an evaluator.
func TestScenarioAxisRejections(t *testing.T) {
	hier := PlatformVariants()[2]
	if !hier.Hier.Enabled() {
		t.Fatal("variant 2 is expected to carry the L1+L2 hierarchy")
	}
	sporadic := sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.1}
	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"partitioned hierarchy", Scenario{Seed: 1, Partitioned: true, Platform: hier}, "separate platform axes"},
		{"sporadic partitioned", Scenario{Seed: 1, Partitioned: true, Arrival: sporadic}, "sporadic arrivals"},
		{"sporadic multicore", Scenario{Seed: 1, Cores: 2, Arrival: sporadic}, "sporadic arrivals"},
		{"sporadic design", Scenario{Seed: 1, Objective: ObjectiveDesign, Arrival: sporadic}, "ObjectiveTiming only"},
		{"bad jitter", Scenario{Seed: 1, Arrival: sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 1.5}}, "jitter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.scn)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestGridAxisOverlay: the grid's arrival and hierarchy fields reach every
// scenario with defaults resolved, and out-of-range axis values are
// rejected instead of silently deactivating the axis.
func TestGridAxisOverlay(t *testing.T) {
	g := Grid{N: 4, Platforms: 2, Jitter: 0.2, ArrivalSeed: 5, ArrivalCycles: 16,
		L2Lines: 512, L2Exclusive: true}
	scns, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i, scn := range scns {
		if scn.Arrival.Model != sched.ArrivalSporadic || scn.Arrival.Jitter != 0.2 ||
			scn.Arrival.Seed != 5 || scn.Arrival.Cycles != 16 {
			t.Errorf("scenario %d arrival %+v", i, scn.Arrival)
		}
		h := scn.Platform.Hier
		if !h.Enabled() || !h.Exclusive || h.L2.Lines != 512 || h.L2.Ways != 4 ||
			h.L2.HitCycles != 10 || h.L2.LineSize != scn.Platform.Cache.LineSize ||
			h.L2.MissCycles != scn.Platform.Cache.MissCycles {
			t.Errorf("scenario %d hierarchy %+v", i, h)
		}
		if err := h.Validate(scn.Platform.Cache); err != nil {
			t.Errorf("scenario %d hierarchy invalid: %v", i, err)
		}
	}
	for _, bad := range []Grid{
		{N: 2, Jitter: -0.1},
		{N: 2, Jitter: 1},
		{N: 2, L2Lines: -4},
		{N: 2, L2Lines: 512, L2Hit: -1},
	} {
		if _, err := bad.Scenarios(); err == nil {
			t.Errorf("grid %+v expanded", bad)
		}
	}
}

// TestEvalNamespaceVersioning pins the signature-key scheme of the new
// axes: hierarchy and arrival configurations are hashed only when active,
// so legacy scenarios keep their namespaces byte-for-byte, while enabling
// either axis (or changing its parameters) moves to a fresh namespace.
func TestEvalNamespaceVersioning(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := Scenario{NumApps: 3}.withDefaults()
	timings, weights, err := RandomTaskset(rng, base)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Timings: timings, Weights: weights}

	legacy := evalNamespace(base, res)

	// Zero-value hierarchy and periodic (or normalized zero-jitter
	// sporadic) arrivals write nothing: same namespace as legacy.
	zeroJitter := base
	zeroJitter.Arrival = sched.Arrival{Model: sched.ArrivalSporadic}
	zeroJitter = zeroJitter.withDefaults()
	if got := evalNamespace(zeroJitter, res); got != legacy {
		t.Errorf("zero-jitter sporadic namespace %s differs from legacy %s", got, legacy)
	}

	hier := base
	hier.Platform = PlatformVariants()[2]
	hierNS := evalNamespace(hier, res)
	if hierNS == legacy {
		t.Error("hierarchy platform shares the single-level namespace")
	}
	excl := hier
	excl.Platform.Hier.Exclusive = true
	if got := evalNamespace(excl, res); got == hierNS {
		t.Error("exclusive and inclusive hierarchies share a namespace")
	}

	spor := base
	spor.Arrival = sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.1, Seed: 7}
	spor = spor.withDefaults()
	sporNS := evalNamespace(spor, res)
	if sporNS == legacy {
		t.Error("sporadic arrivals share the periodic namespace")
	}
	seeded := spor
	seeded.Arrival.Seed = 8
	if got := evalNamespace(seeded, res); got == sporNS {
		t.Error("different arrival seeds share a namespace")
	}

	// The legacy byte stream itself is pinned over a hand-written taskset:
	// if this hash moves, every store in the wild silently recomputes.
	// Bump evalSchema deliberately or not at all.
	fixed := &Result{
		Timings: []sched.AppTiming{
			{Name: "C1", ColdWCET: 300e-6, WarmWCET: 200e-6, MaxIdle: 3e-3},
			{Name: "C2", ColdWCET: 400e-6, WarmWCET: 250e-6, MaxIdle: 4e-3},
		},
		Weights: []float64{0.5, 0.5},
	}
	pinScn := Scenario{NumApps: 2}.withDefaults()
	const pinned = "o/a2cbcec057473493354d50c694b1dcc7/"
	if got := evalNamespace(pinScn, fixed); got != pinned {
		t.Errorf("legacy namespace moved: %s, pinned %s", got, pinned)
	}
}

// TestDesignNamespacePinned pins the byte stream of a design-objective
// evaluation space — budget, plants and constraints included — over a
// fixed taskset, the quick design budget (exp.QuickBudget: 16 particles,
// 25 iterations) and the case-study applications. If this hash moves,
// every stored design silently recomputes.
func TestDesignNamespacePinned(t *testing.T) {
	var budget ctrl.DesignOptions
	budget.Swarm.Particles = 16
	budget.Swarm.Iterations = 25
	fixed := &Result{
		Timings: []sched.AppTiming{
			{Name: "C1", ColdWCET: 907.55e-6, WarmWCET: 452.15e-6, MaxIdle: 3.4e-3},
			{Name: "C2", ColdWCET: 645.25e-6, WarmWCET: 175.00e-6, MaxIdle: 3.9e-3},
			{Name: "C3", ColdWCET: 749.15e-6, WarmWCET: 234.35e-6, MaxIdle: 3.5e-3},
		},
		Weights:   []float64{0.4, 0.4, 0.2},
		Framework: &core.Framework{Apps: apps.CaseStudy()},
	}
	scn := Scenario{NumApps: 3, Objective: ObjectiveDesign, Budget: budget}.withDefaults()
	const pinned = "o/2dd768770230316c16e45ea9fc994919/"
	if got := evalNamespace(scn, fixed); got != pinned {
		t.Errorf("design namespace moved: %s, pinned %s", got, pinned)
	}
}
