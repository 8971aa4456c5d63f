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
	got, err := CanonicalAssignment([]int{1, 0, 1}, 2)
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
		if _, err := CanonicalAssignment(bad.a, bad.nCores); err == nil {
			t.Errorf("CanonicalAssignment(%v, %d) accepted", bad.a, bad.nCores)
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
			if _, err := CanonicalAssignment(a, tc.c); err != nil {
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

// TestMulticoreBranchBoundMatchesExhaustive pins the placement-level
// equality: with a bound the search must select the identical assignment,
// per-core points, and value bits as without one, with no more
// evaluations.
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
		opt := MulticoreOptions{MaxM: maxM}
		ex, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, cores, opt)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		opt.Bounder = testBounder{pt, weights, maxM}
		bb, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, cores, opt)
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
	}
	if !prunedSomewhere {
		t.Error("no trial pruned anything at the placement or subtree level")
	}
}

// TestMulticoreUniformRestriction: the uniform-split search explores a
// subspace of the co-design box, so its optimum can never exceed the free
// search's, and every winning per-core partition is the even split (or
// shared). A bound on the uniform search changes no optimum.
func TestMulticoreUniformRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pt, weights := genTable(rng, 3, 4)
	opt := MulticoreOptions{MaxM: 4, Bounder: testBounder{pt, weights, 4}}
	free, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	uopt := opt
	uopt.Bounder = nil
	uopt.Uniform = true
	uni, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, uopt)
	if err != nil {
		t.Fatal(err)
	}
	uopt.Bounder = opt.Bounder
	ubb, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, uopt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ubb.BestValue) != math.Float64bits(uni.BestValue) ||
		!reflect.DeepEqual(ubb.Assignment, uni.Assignment) || !reflect.DeepEqual(ubb.PerCore, uni.PerCore) {
		t.Errorf("bounded uniform optimum %v %v differs from %v %v", ubb.Assignment, ubb.BestValue, uni.Assignment, uni.BestValue)
	}
	if ubb.Evaluated > uni.Evaluated {
		t.Errorf("bounded uniform search evaluated %d > %d", ubb.Evaluated, uni.Evaluated)
	}
	if !free.FoundBest || !uni.FoundBest {
		t.Fatalf("searches incomplete: free %v, uniform %v", free.FoundBest, uni.FoundBest)
	}
	if uni.BestValue > free.BestValue {
		t.Errorf("uniform optimum %v exceeds co-design optimum %v", uni.BestValue, free.BestValue)
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

// TestMulticoreSeedsOnly: when the canonical enumeration overflows
// MaxAssignments the search falls back to the seeds, reporting Enumerated
// false; with no seeds it errors.
func TestMulticoreSeedsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pt, weights := genTable(rng, 4, 2)
	opt := MulticoreOptions{MaxM: 3, MaxAssignments: 2, Seeds: [][]int{{0, 0, 1, 1}, {0, 1, 0, 1}}}
	res, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enumerated {
		t.Error("overflowed enumeration reported as complete")
	}
	if res.Assignments != 2 {
		t.Errorf("searched %d placements, want the 2 seeds", res.Assignments)
	}
	opt.Seeds = nil
	if _, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, opt); err == nil {
		t.Error("overflow with no seeds accepted")
	}
}

// TestMulticoreValidation covers the error contract of the placement
// search.
func TestMulticoreValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pt, weights := genTable(rng, 3, 2)
	cache := NewMulticoreCache(testCoreEval(pt, weights))
	if _, err := MulticoreExact(cache, pt, 0, MulticoreOptions{MaxM: 3}); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := MulticoreExact(cache, pt, 4, MulticoreOptions{MaxM: 3}); err == nil {
		t.Error("more cores than apps accepted")
	}
	if _, err := MulticoreExact(cache, pt, 2, MulticoreOptions{}); err == nil {
		t.Error("maxM 0 accepted")
	}
	if _, err := MulticoreExact(cache, pt, 2, MulticoreOptions{MaxM: 3, Seeds: [][]int{{0, 0, 0}}}); err == nil {
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
	opt := MulticoreOptions{MaxM: maxM, Bounder: testBounder{pt, weights, maxM}}
	multi, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, opt)
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
