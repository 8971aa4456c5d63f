package search

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/sched"
)

// testTimingScore mirrors engine.timingScore: the closed-form proxy
// objective P_i = 1 - (hbar_i + hmax_i) / (2 t_idle_i), accumulated in
// application order. The search tests replicate it locally (search cannot
// import engine) so the branch-and-bound equality pin runs against the
// same objective shape the engine sweeps use.
func testTimingScore(timings []sched.AppTiming, weights []float64, s sched.Schedule) (Outcome, error) {
	ok, err := sched.IdleFeasible(timings, s)
	if err != nil {
		return Outcome{}, err
	}
	if !ok {
		return Outcome{Pall: -1, Feasible: false}, nil
	}
	pall := 0.0
	feasible := true
	for i, a := range timings {
		gap := sched.BurstGap(timings, s, i)
		hyper := sched.DerivedHyperPeriod(a, s[i], gap)
		limit := a.MaxIdle
		if limit <= 0 {
			limit = hyper
		}
		hbar := hyper / float64(s[i])
		p := 1 - (hbar+sched.DerivedMaxPeriod(a, s[i], gap))/(2*limit)
		if p < 0 {
			feasible = false
		}
		pall += weights[i] * p
	}
	return Outcome{Pall: pall, Feasible: feasible}, nil
}

func testJointEval(pt sched.PartitionTimings, weights []float64) JointEvalFunc {
	return func(j sched.JointSchedule) (Outcome, error) {
		if !j.W.Valid(pt.Apps(), pt.TotalWays()) {
			return Outcome{Pall: -1, Feasible: false}, nil
		}
		timings, err := pt.Timings(j)
		if err != nil {
			return Outcome{}, err
		}
		return testTimingScore(timings, weights, j.M)
	}
}

// testBounder is the timing-objective admissible bound (the search-side
// twin of engine.TimingBounder): assigned dimensions are scored with the
// exact closed form at the minimal gap (the objective is monotone
// nonincreasing in the gap), unconstrained applications by the gap-free
// bound 1 - 1/m plus slack.
type testBounder struct {
	pt      sched.PartitionTimings
	weights []float64
	maxM    int
}

func (b testBounder) timing(i, w int) sched.AppTiming {
	if w == 0 {
		return b.pt.Shared[i]
	}
	return b.pt.ByWays[w-1][i]
}

func (b testBounder) AppAt(i, w, m int, minGap float64) float64 {
	a := b.timing(i, w)
	if a.MaxIdle > 0 {
		hyper := sched.DerivedHyperPeriod(a, m, minGap)
		hbar := hyper / float64(m)
		p := 1 - (hbar+sched.DerivedMaxPeriod(a, m, minGap))/(2*a.MaxIdle)
		return b.weights[i] * p
	}
	return b.weights[i] * (1 - 1/float64(m) + 1e-9)
}

func (b testBounder) AppBest(i, w int) float64 {
	best := math.Inf(-1)
	for m := 1; m <= b.maxM; m++ {
		if v := b.AppAt(i, w, m, 0); v > best {
			best = v
		}
	}
	return best
}

// genTable draws a pseudo-random partition-timing table: warm <= cold
// shared timings, idle budgets keeping round robin feasible, and per-way
// steady-state timings interpolating from the 1-way to the full-cache warm
// bound.
func genTable(rng *rand.Rand, n, ways int) (sched.PartitionTimings, []float64) {
	pt := sched.PartitionTimings{
		Shared: make([]sched.AppTiming, n),
		ByWays: make([][]sched.AppTiming, ways),
	}
	for i := 0; i < n; i++ {
		cold := (1 + 9*rng.Float64()) * 1e-5
		warm := cold * (0.3 + 0.6*rng.Float64())
		pt.Shared[i] = sched.AppTiming{Name: "T", ColdWCET: cold, WarmWCET: warm}
	}
	rr := sched.PeriodLength(pt.Shared, sched.RoundRobin(n))
	for i := range pt.Shared {
		pt.Shared[i].MaxIdle = rr * (1.2 + 2.5*rng.Float64())
	}
	for w := 0; w < ways; w++ {
		pt.ByWays[w] = make([]sched.AppTiming, n)
		for i := 0; i < n; i++ {
			a := pt.Shared[i]
			frac := float64(ways-w-1) / float64(ways)
			steady := a.WarmWCET + (a.ColdWCET-a.WarmWCET)*frac
			pt.ByWays[w][i] = sched.AppTiming{Name: a.Name, ColdWCET: steady, WarmWCET: steady, MaxIdle: a.MaxIdle}
		}
	}
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	return pt, weights
}

// genTiedTable draws a table on a coarse grid: every application has one
// of two timing profiles, one idle budget and an equal weight, and the
// per-way timings take two values, so many points and placements tie in
// value and the strict-">" fold order alone decides the optimum.
func genTiedTable(rng *rand.Rand, n, ways int) (sched.PartitionTimings, []float64) {
	pt := sched.PartitionTimings{
		Shared: make([]sched.AppTiming, n),
		ByWays: make([][]sched.AppTiming, ways),
	}
	for i := range pt.Shared {
		cold := float64(2+2*rng.Intn(2)) * 1e-5
		pt.Shared[i] = sched.AppTiming{Name: "T", ColdWCET: cold, WarmWCET: cold / 2}
	}
	idle := sched.PeriodLength(pt.Shared, sched.RoundRobin(n)) * float64(2+rng.Intn(2))
	for i := range pt.Shared {
		pt.Shared[i].MaxIdle = idle
	}
	for w := range pt.ByWays {
		pt.ByWays[w] = make([]sched.AppTiming, n)
		for i, a := range pt.Shared {
			steady := a.ColdWCET
			if 2*(w+1) > ways {
				steady = a.WarmWCET
			}
			pt.ByWays[w][i] = sched.AppTiming{Name: a.Name, ColdWCET: steady, WarmWCET: steady, MaxIdle: idle}
		}
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	return pt, weights
}

// TestExactUniformMatchesStandalone pins the two-incumbent walk against
// the walks it folds together, with the timing bound, on random and on
// tie-heavy tables: its co side is exact's bounded result in every field,
// its uniform side has the plain enumeration's optimum of the shared
// subspace plus the even split (point and value bits) from no more
// evaluations, and no point is looked up twice.
func TestExactUniformMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prunedUniform := false
	for trial := 0; trial < 80; trial++ {
		n, ways, maxM := 1+rng.Intn(4), 1+rng.Intn(6), 2+rng.Intn(3)
		gen := genTable
		if trial%2 == 1 {
			gen = genTiedTable
		}
		pt, weights := gen(rng, n, ways)
		eval := testJointEval(pt, weights)
		get := func(j sched.JointSchedule) (Outcome, bool, error) {
			out, err := eval(j)
			return out, true, err
		}
		bound := testBounder{pt, weights, maxM}
		want, err := exact(get, pt, bound, maxM, 1)
		if err != nil {
			t.Fatal(err)
		}
		even, err := enumerate(get, pt, maxM, true)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		co, uni, err := exactUniform(func(j sched.JointSchedule) (Outcome, bool, error) {
			if seen[j.Key()] {
				t.Fatalf("trial %d: %v looked up twice", trial, j)
			}
			seen[j.Key()] = true
			return get(j)
		}, pt, bound, maxM)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(co, want) {
			t.Errorf("trial %d: co side %+v, exact %+v", trial, co, want)
		}
		if uni.FoundBest != even.FoundBest || !uni.Best.Equal(even.Best) ||
			math.Float64bits(uni.BestValue) != math.Float64bits(even.BestValue) {
			t.Errorf("trial %d: uniform optimum %v (%v), enumeration %v (%v)",
				trial, uni.Best, uni.BestValue, even.Best, even.BestValue)
		}
		if uni.Evaluated > even.Evaluated || uni.Feasible > even.Feasible {
			t.Errorf("trial %d: uniform side evaluated %d (%d feasible) > enumeration %d (%d)",
				trial, uni.Evaluated, uni.Feasible, even.Evaluated, even.Feasible)
		}
		if uni.Pruned > 0 {
			prunedUniform = true
		}
	}
	if !prunedUniform {
		t.Error("the bound never cut the uniform side")
	}
}

// TestJointBranchBoundMatchesExhaustive is the package-level equality pin:
// over a spread of pseudo-random joint boxes the bounded exact search must
// return the plain enumeration's optimum — point, value bits, and
// shared-subspace optimum — while never evaluating more points.
func TestJointBranchBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prunedSomewhere := false
	for trial := 0; trial < 25; trial++ {
		n := 2 + trial%3
		ways := 1 + trial%5
		maxM := 3 + trial%3
		pt, weights := genTable(rng, n, ways)
		eval := testJointEval(pt, weights)

		ex, err := enumerate(NewJointCache(eval).Get, pt, maxM, false)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		bb, err := JointExact(NewJointCache(eval), pt, testBounder{pt, weights, maxM}, maxM, 1)
		if err != nil {
			t.Fatalf("trial %d: branch-and-bound: %v", trial, err)
		}
		if bb.FoundBest != ex.FoundBest || !bb.Best.Equal(ex.Best) {
			t.Errorf("trial %d: best %v (found %v) != exhaustive %v (found %v)",
				trial, bb.Best, bb.FoundBest, ex.Best, ex.FoundBest)
		}
		if math.Float64bits(bb.BestValue) != math.Float64bits(ex.BestValue) {
			t.Errorf("trial %d: best value %v != exhaustive %v", trial, bb.BestValue, ex.BestValue)
		}
		if bb.FoundShared != ex.FoundShared || !bb.BestShared.Equal(ex.BestShared) ||
			math.Float64bits(bb.BestSharedValue) != math.Float64bits(ex.BestSharedValue) {
			t.Errorf("trial %d: shared optimum %v (%v) != exhaustive %v (%v)",
				trial, bb.BestShared, bb.BestSharedValue, ex.BestShared, ex.BestSharedValue)
		}
		if bb.Evaluated > ex.Evaluated {
			t.Errorf("trial %d: branch-and-bound evaluated %d > exhaustive %d", trial, bb.Evaluated, ex.Evaluated)
		}
		if bb.Pruned > 0 {
			prunedSomewhere = true
			if bb.Evaluated >= ex.Evaluated {
				t.Errorf("trial %d: pruned %d subtrees but evaluated %d of %d points",
					trial, bb.Pruned, bb.Evaluated, ex.Evaluated)
			}
		}
	}
	if !prunedSomewhere {
		t.Error("no trial pruned anything: the bound is vacuous for this spread")
	}
}

// TestJointBranchBoundTrivialBounder: with the objective-agnostic weight
// bound no subtree can be cut (the incumbent never reaches the weight sum
// for these tasksets), so the bounded search degenerates to the plain
// enumeration — identical optimum and identical evaluation count.
func TestJointBranchBoundTrivialBounder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pt, weights := genTable(rng, 3, 3)
	eval := testJointEval(pt, weights)
	ex, err := enumerate(NewJointCache(eval).Get, pt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := JointExact(NewJointCache(eval), pt, TrivialBounder(weights), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Best.Equal(ex.Best) || math.Float64bits(bb.BestValue) != math.Float64bits(ex.BestValue) {
		t.Errorf("trivial-bound optimum %v (%v) != exhaustive %v (%v)", bb.Best, bb.BestValue, ex.Best, ex.BestValue)
	}
	if bb.Evaluated != ex.Evaluated || bb.Feasible != ex.Feasible {
		t.Errorf("trivial bound changed the walk: evaluated %d/%d, feasible %d/%d",
			bb.Evaluated, ex.Evaluated, bb.Feasible, ex.Feasible)
	}
	if bb.Pruned != 0 {
		t.Errorf("trivial bound pruned %d subtrees", bb.Pruned)
	}
}

// TestJointBranchBoundValidation covers the error contract, and a nil
// bound: it cuts nothing, so the search is the plain enumeration.
func TestJointBranchBoundValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pt, weights := genTable(rng, 2, 2)
	eval := testJointEval(pt, weights)
	if _, err := JointExact(NewJointCache(eval), pt, TrivialBounder(weights), 0, 1); err == nil {
		t.Error("maxM 0 accepted")
	}
	if _, err := JointExact(NewJointCache(eval), sched.PartitionTimings{}, TrivialBounder(weights), 4, 1); err == nil {
		t.Error("empty timing table accepted")
	}
	short := sched.PartitionTimings{Shared: pt.Shared, ByWays: [][]sched.AppTiming{pt.ByWays[0][:1]}}
	if _, err := JointExact(NewJointCache(eval), short, nil, 4, 1); err == nil {
		t.Error("timing table with a short row accepted")
	}
	got, err := JointExact(NewJointCache(eval), pt, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enumerate(NewJointCache(eval).Get, pt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nil bound: %+v, enumeration %+v", got, want)
	}
}

// TestExactVisitsJointBoxInOrder pins the traversal without a bound against
// the plain odometer: the shared subspace, then every partition's
// idle-feasible schedules. At any worker count it evaluates exactly those
// points, and serially it evaluates them in that order. exactUniform's
// walk without a bound visits the same points in the same order, once
// each: its co side is exact's result and its uniform side the plain
// enumeration of the shared subspace plus the even split.
func TestExactVisitsJointBoxInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(3)
		pt, weights := genTable(rng, n, 1+rng.Intn(5))
		maxM := 1 + rng.Intn(5)
		want, err := jointBox(pt, maxM, false)
		if err != nil {
			t.Fatal(err)
		}
		eval := testJointEval(pt, weights)
		var (
			mu  sync.Mutex
			got []sched.JointSchedule
		)
		get := func(j sched.JointSchedule) (Outcome, bool, error) {
			mu.Lock()
			got = append(got, j.Clone())
			mu.Unlock()
			out, err := eval(j)
			return out, true, err
		}
		var serial *JointExhaustiveResult
		for _, workers := range []int{1, 3} {
			got = nil
			r, err := exact(get, pt, nil, maxM, workers)
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 {
				sort.Slice(got, func(a, b int) bool { return got[a].Key() < got[b].Key() })
				sorted := append([]sched.JointSchedule(nil), want...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key() < sorted[b].Key() })
				if !reflect.DeepEqual(got, sorted) {
					t.Fatalf("trial %d, %d workers: evaluated %v, box %v", trial, workers, got, sorted)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: traversal %v, box %v", trial, got, want)
			}
			serial = r
		}

		got = nil
		co, uni, err := exactUniform(get, pt, nil, maxM)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: two-incumbent traversal %v, box %v", trial, got, want)
		}
		if !reflect.DeepEqual(co, serial) {
			t.Errorf("trial %d: co side %+v, exact %+v", trial, co, serial)
		}
		even, err := enumerate(func(j sched.JointSchedule) (Outcome, bool, error) {
			out, err := eval(j)
			return out, true, err
		}, pt, maxM, true)
		if err != nil {
			t.Fatal(err)
		}
		if uni.Evaluated != even.Evaluated || uni.Feasible != even.Feasible || uni.Pruned != 0 ||
			uni.FoundBest != even.FoundBest || !uni.Best.Equal(even.Best) ||
			math.Float64bits(uni.BestValue) != math.Float64bits(even.BestValue) {
			t.Errorf("trial %d: uniform side %+v, enumeration %+v", trial, uni, even)
		}
	}
}

// TestExactSiblingCutKeepsFeasibleLeaves pins schedDFS's sibling cut — an
// infeasible burst length m >= 2 ends its loop — against
// sched.EnumerateFeasible, which walks every sibling: on random tasksets
// with budgets tight enough that prefixes turn infeasible, and every
// partition, the walk without a bound evaluates, regime by regime, exactly
// the enumeration's feasible schedules, in order. The trials must give the
// cut siblings to skip, and an infeasible m = 1 followed by a feasible
// m = 2, which a cut from m = 1 on would lose.
func TestExactSiblingCutKeepsFeasibleLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var skipped, revived int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		pt, _ := genTable(rng, n, 1+rng.Intn(5))
		for i := range pt.Shared {
			idle := pt.Shared[i].MaxIdle * (0.4 + 0.8*rng.Float64())
			pt.Shared[i].MaxIdle = idle
			for _, row := range pt.ByWays {
				row[i].MaxIdle = idle
			}
		}
		maxM := 2 + rng.Intn(5)
		var got []sched.JointSchedule
		get := func(j sched.JointSchedule) (Outcome, bool, error) {
			got = append(got, j.Clone())
			return Outcome{Pall: 1, Feasible: true}, true, nil
		}
		if _, err := exact(get, pt, nil, maxM, 1); err != nil {
			t.Fatal(err)
		}
		var want []sched.JointSchedule
		for _, w := range append([]sched.Ways{nil}, partitions(n, pt.TotalWays(), false)...) {
			timings, err := pt.Timings(sched.JointSchedule{W: w})
			if err != nil {
				t.Fatal(err)
			}
			feasible, err := sched.EnumerateFeasible(timings, maxM)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range feasible {
				want = append(want, sched.JointSchedule{M: m, W: w})
			}
			s, r := siblingCuts(t, timings, maxM)
			skipped, revived = skipped+s, revived+r
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (maxM %d): evaluated %v, feasible box %v", trial, maxM, got, want)
		}
	}
	if skipped == 0 || revived == 0 {
		t.Fatalf("the trials cut %d siblings and revived %d prefixes at m = 2: the cut is not exercised", skipped, revived)
	}
}

// siblingCuts walks timings' feasible tree over every sibling and counts
// the siblings the cut skips (those after an infeasible m >= 2) and the
// prefixes infeasible at m = 1 but feasible at m = 2.
func siblingCuts(t *testing.T, timings []sched.AppTiming, maxM int) (skipped, revived int) {
	t.Helper()
	tree, err := sched.NewFeasibleTree(timings, maxM)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(d int)
	walk = func(d int) {
		if d == len(timings) {
			return
		}
		cut := false
		for m := 1; m <= maxM; m++ {
			tree.Cur[d] = m
			infeasible := tree.PrefixInfeasible(d + 1)
			switch {
			case cut:
				if !infeasible {
					t.Fatalf("%v: feasible after an infeasible sibling m >= 2", tree.Cur[:d+1])
				}
				skipped++
			case infeasible && m >= 2:
				cut = true
			case m == 2 && !infeasible:
				tree.Cur[d] = 1
				if tree.PrefixInfeasible(d + 1) {
					revived++
				}
				tree.Cur[d] = 2
			}
			if !infeasible {
				walk(d + 1)
			}
		}
	}
	walk(0)
	return skipped, revived
}
