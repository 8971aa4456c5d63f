package search

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sched"
)

func testCoreEval(pt sched.PartitionTimings, weights []float64) CoreEvalFunc {
	return func(p CorePoint) (Outcome, error) {
		sub, err := SubPartition(pt, p.Apps)
		if err != nil {
			return Outcome{}, err
		}
		w := make([]float64, len(p.Apps))
		for k, i := range p.Apps {
			w[k] = weights[i]
		}
		return testJointEval(sub, w)(p.Point)
	}
}

func TestCorePointKey(t *testing.T) {
	p := CorePoint{Apps: []int{0, 2}, Point: sched.JointSchedule{M: sched.Schedule{1, 3}, W: sched.Ways{2, 1}}}
	if got, want := p.Key(), "c[0 2]|(1, 3)|w[2 1]"; got != want {
		t.Errorf("key %q, want %q", got, want)
	}
	shared := CorePoint{Apps: []int{1}, Point: sched.JointSchedule{M: sched.Schedule{2}}}
	if got, want := shared.Key(), "c[1]|(2)"; got != want {
		t.Errorf("shared key %q, want %q", got, want)
	}
}

func TestCanonicalAssignment(t *testing.T) {
	got, err := canonicalAssignment([]int{1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("canonical = %v, want %v", got, want)
	}
	for _, bad := range []struct {
		a      []int
		nCores int
	}{
		{[]int{0, 0, 0}, 2}, // core 1 empty
		{[]int{0, 2, 1}, 2}, // core index out of range
		{[]int{0, 1}, 0},    // no cores
		{nil, 1},            // no apps
	} {
		if _, err := canonicalAssignment(bad.a, bad.nCores); err == nil {
			t.Errorf("canonicalAssignment(%v, %d) accepted", bad.a, bad.nCores)
		}
	}
}

func TestCanonicalAssignmentsCount(t *testing.T) {
	// Stirling numbers of the second kind: S(3,2)=3, S(4,2)=7, S(4,3)=6.
	for _, tc := range []struct{ n, c, want int }{
		{3, 1, 1}, {3, 2, 3}, {3, 3, 1}, {4, 2, 7}, {4, 3, 6},
	} {
		got, complete := canonicalAssignments(tc.n, tc.c, 2000)
		if !complete || len(got) != tc.want {
			t.Errorf("canonicalAssignments(%d, %d) = %d placements (complete %v), want %d",
				tc.n, tc.c, len(got), complete, tc.want)
		}
		for _, a := range got {
			if _, err := canonicalAssignment(a, tc.c); err != nil {
				t.Errorf("enumerated assignment %v not canonical-valid: %v", a, err)
			}
		}
	}
	if _, complete := canonicalAssignments(4, 2, 3); complete {
		t.Error("limit 3 not reported as overflow for 7 placements")
	}
}

func TestSubPartitionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pt, _ := genTable(rng, 3, 2)
	if _, err := SubPartition(pt, nil); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := SubPartition(pt, []int{0, 3}); err == nil {
		t.Error("out-of-range subset accepted")
	}
	if _, err := SubPartition(pt, []int{1, 0}); err == nil {
		t.Error("descending subset accepted")
	}
	sub, err := SubPartition(pt, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Apps() != 2 || sub.TotalWays() != pt.TotalWays() {
		t.Errorf("sub shape %d apps / %d ways", sub.Apps(), sub.TotalWays())
	}
	if sub.Shared[1] != pt.Shared[2] || sub.ByWays[1][0] != pt.ByWays[1][0] {
		t.Error("sub entries not picked from parent")
	}
}

// seedTable has two cache-hungry applications (0 and 2, whose steady-state
// WCETs collapse with more ways) and a flat one (1).
func seedTable() sched.PartitionTimings {
	return sched.PartitionTimings{
		Shared: []sched.AppTiming{
			{Name: "a", ColdWCET: 900e-6, WarmWCET: 300e-6},
			{Name: "b", ColdWCET: 600e-6, WarmWCET: 480e-6},
			{Name: "c", ColdWCET: 700e-6, WarmWCET: 350e-6},
		},
		ByWays: [][]sched.AppTiming{
			{{WarmWCET: 900e-6}, {WarmWCET: 500e-6}, {WarmWCET: 800e-6}},
			{{WarmWCET: 300e-6}, {WarmWCET: 490e-6}, {WarmWCET: 400e-6}},
		},
	}
}

// TestBalancedPlacementSeed pins the first placement seed: balanced by cold
// WCET, it isolates the heaviest application, and it is a valid placement
// on every core count.
func TestBalancedPlacementSeed(t *testing.T) {
	pt := seedTable()
	seeds := placementSeeds(pt, 2)
	if len(seeds) != 2 {
		t.Fatalf("%d seeds, want balanced and sensitivity", len(seeds))
	}
	// Cold loads 900 | 600 + 700: the heaviest application is alone.
	if bal := seeds[0]; !reflect.DeepEqual(bal, []int{0, 1, 1}) {
		t.Errorf("balanced seed %v, want [0 1 1]", bal)
	}
	for cores := 1; cores <= 3; cores++ {
		if s := placementSeeds(pt, cores)[0]; !validPlacement(s, cores) {
			t.Errorf("%d cores: balanced seed %v invalid", cores, s)
		}
	}
}

// TestSensitivityPlacementSeed pins the second placement seed: it puts the
// two cache-hungry applications on different cores, with the per-way table
// and without it (the cold-minus-warm fallback), and it is a valid
// placement on every core count.
func TestSensitivityPlacementSeed(t *testing.T) {
	pt := seedTable()
	// Sensitivities 600, 10, 400: apps 0 and 2 on different cores.
	if sens := placementSeeds(pt, 2)[1]; sens[0] == sens[2] {
		t.Errorf("both cache-sensitive apps on one core: %v", sens)
	}
	flat := sched.PartitionTimings{Shared: pt.Shared}
	if sens := placementSeeds(flat, 2)[1]; sens[0] == sens[2] {
		t.Errorf("shared-only fallback: both cache-sensitive apps on one core: %v", sens)
	}
	for cores := 1; cores <= 3; cores++ {
		for _, table := range []sched.PartitionTimings{pt, flat} {
			if s := placementSeeds(table, cores)[1]; !validPlacement(s, cores) {
				t.Errorf("%d cores: sensitivity seed %v invalid", cores, s)
			}
		}
	}
}

// validPlacement reports whether a places applications on cores
// 0..nCores-1 with no core left empty.
func validPlacement(a []int, nCores int) bool {
	_, err := canonicalAssignment(a, nCores)
	return err == nil
}

// TestPlacementSeedsEqualLoads: with all loads equal (zero sensitivity on
// a 1-way cache, identical programs) the greedy placement still uses every
// core, falling back to the application count.
func TestPlacementSeedsEqualLoads(t *testing.T) {
	tm := sched.AppTiming{ColdWCET: 500e-6, WarmWCET: 200e-6}
	pt := sched.PartitionTimings{
		Shared: []sched.AppTiming{tm, tm, tm, tm},
		ByWays: [][]sched.AppTiming{{tm, tm, tm, tm}},
	}
	for cores := 1; cores <= 4; cores++ {
		for k, s := range placementSeeds(pt, cores) {
			if _, err := canonicalAssignment(s, cores); err != nil {
				t.Errorf("%d cores, seed %d: %v leaves a core empty: %v", cores, k, s, err)
			}
		}
	}
}

// TestMulticoreBranchBoundMatchesExhaustive pins the placement-level
// equality: with a bound the co-design must select the identical
// assignment, per-core points, and value bits as without one, with no more
// evaluations. The uniform baseline takes no bound, so it is the same
// whether the co-design has one or not.
func TestMulticoreBranchBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prunedSomewhere := false
	for trial := 0; trial < 12; trial++ {
		n := 3 + trial%2
		ways := 1 + trial%4
		cores := 2 + trial%2
		if cores > n {
			cores = n
		}
		maxM := 3 + trial%2
		pt, weights := genTable(rng, n, ways)
		ex, exUni, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, cores, maxM, nil)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		bb, bbUni, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, cores, maxM, testBounder{pt, weights, maxM})
		if err != nil {
			t.Fatalf("trial %d: branch-and-bound: %v", trial, err)
		}
		if bb.FoundBest != ex.FoundBest || !reflect.DeepEqual(bb.Assignment, ex.Assignment) {
			t.Errorf("trial %d: assignment %v (found %v) != exhaustive %v (found %v)",
				trial, bb.Assignment, bb.FoundBest, ex.Assignment, ex.FoundBest)
		}
		if math.Float64bits(bb.BestValue) != math.Float64bits(ex.BestValue) {
			t.Errorf("trial %d: value %v != exhaustive %v", trial, bb.BestValue, ex.BestValue)
		}
		if !reflect.DeepEqual(bb.PerCore, ex.PerCore) {
			t.Errorf("trial %d: per-core solutions differ:\nbb %+v\nex %+v", trial, bb.PerCore, ex.PerCore)
		}
		if bb.Evaluated > ex.Evaluated {
			t.Errorf("trial %d: evaluated %d > exhaustive %d", trial, bb.Evaluated, ex.Evaluated)
		}
		if bb.Evaluated < ex.Evaluated || bb.AssignmentsPruned > 0 {
			prunedSomewhere = true
		}
		if !ex.Enumerated || ex.Assignments == 0 {
			t.Errorf("trial %d: exhaustive did not enumerate placements: %+v", trial, ex)
		}
		if !reflect.DeepEqual(bbUni, exUni) {
			t.Errorf("trial %d: uniform baseline depends on the co-design's bound:\nbb %+v\nex %+v", trial, bbUni, exUni)
		}
	}
	if !prunedSomewhere {
		t.Error("no trial pruned anything at the placement or subtree level")
	}
}

// uniformWith folds the canonical placements of pt into a uniform-split
// search with the given bound, as placementSearch folds its baseline.
func uniformWith(cache *MulticoreCache, pt sched.PartitionTimings, nCores, maxM int, bound Bounder) (*MulticoreResult, error) {
	enum, complete := canonicalAssignments(pt.Apps(), nCores, maxAssignments)
	acc := newPlacementAcc(cache, pt, nCores, maxM, bound, true, complete)
	for _, a := range enum {
		if err := acc.fold(a, assignmentSubsets(a, nCores)); err != nil {
			return nil, err
		}
	}
	return acc.res, nil
}

// TestMulticoreUniformRestriction: the uniform baseline explores a
// subspace of the co-design box, so its optimum can never exceed the
// co-design's, and every winning per-core partition is the even split (or
// shared). The baseline's even-split walk is bound-safe too: a bound on it
// changes no optimum.
func TestMulticoreUniformRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pt, weights := genTable(rng, 3, 4)
	bound := testBounder{pt, weights, 4}
	free, uni, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 4, bound)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := uniformWith(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ubb, err := uniformWith(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 4, bound)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ubb.BestValue) != math.Float64bits(plain.BestValue) ||
		!reflect.DeepEqual(ubb.Assignment, plain.Assignment) || !reflect.DeepEqual(ubb.PerCore, plain.PerCore) {
		t.Errorf("bounded uniform optimum %v %v differs from %v %v", ubb.Assignment, ubb.BestValue, plain.Assignment, plain.BestValue)
	}
	if ubb.Evaluated > plain.Evaluated {
		t.Errorf("bounded uniform search evaluated %d > %d", ubb.Evaluated, plain.Evaluated)
	}
	if math.Float64bits(plain.BestValue) != math.Float64bits(uni.BestValue) {
		t.Errorf("uniform baseline %v differs from the enumeration-only search %v", uni.BestValue, plain.BestValue)
	}
	if !free.FoundBest || !uni.FoundBest {
		t.Fatalf("searches incomplete: free %v, uniform %v", free.FoundBest, uni.FoundBest)
	}
	if uni.BestValue > free.BestValue {
		t.Errorf("uniform optimum %v exceeds co-design optimum %v", uni.BestValue, free.BestValue)
	}
	if uni.AssignmentsPruned != 0 || uni.SubtreesPruned != 0 {
		t.Errorf("uniform baseline pruned %d placements, %d subtrees: it takes no bound", uni.AssignmentsPruned, uni.SubtreesPruned)
	}
	for c, sol := range uni.PerCore {
		if sol.Point.Shared() {
			continue
		}
		even := sched.EvenWays(len(sol.Apps), pt.TotalWays())
		if !sol.Point.W.Equal(even) {
			t.Errorf("core %d: uniform winner %v is not the even split %v", c, sol.Point, even)
		}
	}
}

// TestMulticoreSeedsOnly: when the canonical enumeration overflows its cap
// both searches fall back to the seeds, reporting Enumerated false; with
// no seeds it errors.
func TestMulticoreSeedsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pt, weights := genTable(rng, 4, 2)
	seeds := [][]int{{0, 0, 1, 1}, {0, 1, 0, 1}}
	co, uni, err := placementSearch(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 3, nil, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*MulticoreResult{co, uni} {
		if res.Enumerated {
			t.Error("overflowed enumeration reported as complete")
		}
		if res.Assignments != 2 {
			t.Errorf("searched %d placements, want the 2 seeds", res.Assignments)
		}
	}
	if _, _, err := placementSearch(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 3, nil, nil, 2); err == nil {
		t.Error("overflow with no seeds accepted")
	}
}

// TestMulticoreValidation covers the error contract of the placement
// search.
func TestMulticoreValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pt, weights := genTable(rng, 3, 2)
	cache := NewMulticoreCache(testCoreEval(pt, weights))
	if _, _, err := MulticoreExact(cache, pt, 0, 3, nil); err == nil {
		t.Error("0 cores accepted")
	}
	if _, _, err := MulticoreExact(cache, pt, 4, 3, nil); err == nil {
		t.Error("more cores than apps accepted")
	}
	if _, _, err := MulticoreExact(cache, pt, 2, 0, nil); err == nil {
		t.Error("maxM 0 accepted")
	}
	if _, _, err := placementSearch(cache, pt, 2, 3, nil, [][]int{{0, 0, 0}}, maxAssignments); err == nil {
		t.Error("seed leaving a core empty accepted")
	}
}

// TestMulticoreMoreCoresNeverWorse: on these tasksets the 2-core co-design
// must dominate the single-core joint optimum — each core gets a private
// cache and shorter gaps.
func TestMulticoreMoreCoresNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pt, weights := genTable(rng, 3, 4)
	maxM := 4
	single, err := JointExact(NewJointCache(testJointEval(pt, weights)), pt, nil, maxM, 1)
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, maxM, testBounder{pt, weights, maxM})
	if err != nil {
		t.Fatal(err)
	}
	if !single.FoundBest || !multi.FoundBest {
		t.Fatalf("searches incomplete: single %v, multi %v", single.FoundBest, multi.FoundBest)
	}
	if multi.BestValue < single.BestValue {
		t.Errorf("2-core optimum %v below single-core joint optimum %v", multi.BestValue, single.BestValue)
	}
}
