package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
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
// evaluations, and so must the uniform baseline.
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
		if d := optimumDiff(bbUni, exUni); d != "" {
			t.Errorf("trial %d: uniform baseline with the bound differs from without: %s", trial, d)
		}
		if bbUni.Evaluated > exUni.Evaluated {
			t.Errorf("trial %d: bounded uniform baseline evaluated %d > %d", trial, bbUni.Evaluated, exUni.Evaluated)
		}
	}
	if !prunedSomewhere {
		t.Error("no trial pruned anything at the placement or subtree level")
	}
}

// TestMulticoreUniformRestriction: the uniform baseline explores a
// subspace of the co-design box, so its optimum can never exceed the
// co-design's, and every winning per-core partition is the even split (or
// shared). The bound cuts inside the baseline's walks too and changes no
// optimum: the baseline's is the unbounded oracle's, bit for bit.
func TestMulticoreUniformRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pt, weights := genTable(rng, 3, 4)
	bound := testBounder{pt, weights, 4}
	free, uni, err := MulticoreExact(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 4, bound)
	if err != nil {
		t.Fatal(err)
	}
	_, plain, err := oracleSearch(NewMulticoreCache(testCoreEval(pt, weights)), pt, 2, 4, nil, placementSeeds(pt, 2), maxAssignments)
	if err != nil {
		t.Fatal(err)
	}
	if d := optimumDiff(uni, plain); d != "" {
		t.Errorf("bounded uniform baseline differs from the unbounded oracle: %s", d)
	}
	if uni.Evaluated > plain.Evaluated {
		t.Errorf("bounded uniform baseline evaluated %d > %d", uni.Evaluated, plain.Evaluated)
	}
	if uni.SubtreesPruned == 0 {
		t.Error("the bound cut no subtree of the uniform baseline")
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

// oracleAcc is the per-side accumulator of oracleSearch: its own solved
// subsets, counters and incumbent. The co-design's subsets are solved by
// exact (cutting with the bound), the uniform baseline's by the plain
// enumeration of the shared subspace plus the even split.
type oracleAcc struct {
	cache *MulticoreCache
	pt    sched.PartitionTimings
	maxM  int
	bound Bounder
	even  bool

	appBest, wayBestUpTo [][]float64

	solved  map[string]CoreSolution
	perCore []CoreSolution
	res     *MulticoreResult
}

// oracleSearch is the placement search as two separate searches folding
// the same placement order: the co-design with the bound, the uniform
// baseline without one, each solving its own subsets and reading core
// points through the inserting Get, so the baseline re-reads what the
// co-design evaluated. The single two-incumbent walk is pinned against it.
func oracleSearch(cache *MulticoreCache, pt sched.PartitionTimings, nCores, maxM int, bound Bounder, seeds [][]int, limit int) (co, uniform *MulticoreResult, err error) {
	order, complete, err := placementOrder(pt.Apps(), nCores, seeds, limit)
	if err != nil {
		return nil, nil, err
	}
	accs := []*oracleAcc{
		{cache: cache, pt: pt, maxM: maxM, bound: bound},
		{cache: cache, pt: pt, maxM: maxM, even: true},
	}
	for _, a := range accs {
		a.solved = map[string]CoreSolution{}
		a.perCore = make([]CoreSolution, nCores)
		a.res = &MulticoreResult{Cores: nCores, BestValue: math.Inf(-1), Enumerated: complete}
		if a.bound != nil {
			a.appBest, a.wayBestUpTo = boundTables(a.bound, pt.Apps(), pt.TotalWays())
		}
	}
	for _, assign := range order {
		subsets := assignmentSubsets(assign, nCores)
		for _, a := range accs {
			if err := a.fold(assign, subsets); err != nil {
				return nil, nil, err
			}
		}
	}
	return accs[0].res, accs[1].res, nil
}

func (a *oracleAcc) fold(assign []int, subsets [][]int) error {
	res := a.res
	res.Assignments++
	if a.bound != nil && res.FoundBest {
		ub := 0.0
		for _, sub := range subsets {
			cap := a.pt.TotalWays() - (len(sub) - 1)
			for _, i := range sub {
				t := a.appBest[i][0]
				if cap >= 1 && a.wayBestUpTo[i][cap] > t {
					t = a.wayBestUpTo[i][cap]
				}
				ub += t
			}
		}
		if ub <= res.BestValue {
			res.AssignmentsPruned++
			return nil
		}
	}
	total := 0.0
	for c, idx := range subsets {
		sol, err := a.solve(idx)
		if err != nil {
			return err
		}
		if !sol.Found {
			return nil
		}
		a.perCore[c] = sol
		total += sol.Value
	}
	if total > res.BestValue {
		res.BestValue = total
		res.FoundBest = true
		res.Assignment = append([]int(nil), assign...)
		res.PerCore = make([]CoreSolution, len(a.perCore))
		for c, sol := range a.perCore {
			res.PerCore[c] = CoreSolution{Apps: append([]int(nil), sol.Apps...), Point: sol.Point.Clone(), Value: sol.Value, Found: true}
		}
	}
	return nil
}

func (a *oracleAcc) solve(idx []int) (CoreSolution, error) {
	key := appsKey(idx)
	if sol, ok := a.solved[key]; ok {
		return sol, nil
	}
	sub, err := SubPartition(a.pt, idx)
	if err != nil {
		return CoreSolution{}, err
	}
	get := func(j sched.JointSchedule) (Outcome, bool, error) {
		return a.cache.Get(CorePoint{Apps: idx, Point: j})
	}
	var r *JointExhaustiveResult
	if a.even {
		r, err = enumerate(get, sub, a.maxM, true)
	} else {
		var bound Bounder
		if a.bound != nil {
			bound = subBounder{a.bound, idx}
		}
		r, err = exact(get, sub, bound, a.maxM, 1)
	}
	if err != nil {
		return CoreSolution{}, err
	}
	sol := CoreSolution{Apps: idx, Point: r.Best, Value: r.BestValue, Found: r.FoundBest}
	a.solved[key] = sol
	a.res.SubtreesPruned += r.Pruned
	a.res.Subsets++
	a.res.Evaluated += r.Evaluated
	a.res.Feasible += r.Feasible
	return sol, nil
}

// optimumDiff describes how two placement results' optimum fields differ
// (assignment, per-core solutions, value bits, found flag, placements
// examined, enumeration flag), or returns "" when they are equal.
func optimumDiff(got, want *MulticoreResult) string {
	switch {
	case !reflect.DeepEqual(got.Assignment, want.Assignment):
		return fmt.Sprintf("assignment %v, want %v", got.Assignment, want.Assignment)
	case !reflect.DeepEqual(got.PerCore, want.PerCore):
		return fmt.Sprintf("per-core %+v, want %+v", got.PerCore, want.PerCore)
	case math.Float64bits(got.BestValue) != math.Float64bits(want.BestValue):
		return fmt.Sprintf("value %v, want %v", got.BestValue, want.BestValue)
	case got.FoundBest != want.FoundBest:
		return fmt.Sprintf("found %v, want %v", got.FoundBest, want.FoundBest)
	case got.Assignments != want.Assignments:
		return fmt.Sprintf("%d placements, want %d", got.Assignments, want.Assignments)
	case got.Enumerated != want.Enumerated:
		return fmt.Sprintf("enumerated %v, want %v", got.Enumerated, want.Enumerated)
	}
	return ""
}

// TestMulticoreMatchesOracle pins the one-walk placement search against
// the two-search oracle over seeded random and tie-heavy tables, with and
// without the timing bound, and with the enumeration complete and
// capped to the seeds: the co-design equals the oracle's in every field,
// the uniform baseline's optimum equals the oracle's bit for bit (every
// field, when there is no bound to cut its walks), and the baseline never
// evaluates more.
func TestMulticoreMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 96; trial++ {
		n := 2 + rng.Intn(3)
		ways, maxM := 1+rng.Intn(5), 2+rng.Intn(3)
		cores := 1 + rng.Intn(n)
		if cores > 3 {
			cores = 3
		}
		gen := genTable
		if trial%2 == 1 {
			gen = genTiedTable
		}
		pt, weights := gen(rng, n, ways)
		limit := maxAssignments
		if trial%3 == 2 {
			limit = 1
		}
		seeds := placementSeeds(pt, cores)
		for _, bound := range []Bounder{nil, testBounder{pt, weights, maxM}} {
			eval := testCoreEval(pt, weights)
			wantCo, wantUni, err := oracleSearch(NewMulticoreCache(eval), pt, cores, maxM, bound, seeds, limit)
			if err != nil {
				t.Fatal(err)
			}
			co, uni, err := placementSearch(NewMulticoreCache(eval), pt, cores, maxM, bound, seeds, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(co, wantCo) {
				t.Errorf("trial %d (bound %v): co-design\n%+v\noracle\n%+v", trial, bound != nil, co, wantCo)
			}
			if d := optimumDiff(uni, wantUni); d != "" {
				t.Errorf("trial %d (bound %v): uniform baseline %s", trial, bound != nil, d)
			}
			if bound == nil && !reflect.DeepEqual(uni, wantUni) {
				t.Errorf("trial %d: unbounded uniform baseline\n%+v\noracle\n%+v", trial, uni, wantUni)
			}
			if uni.Evaluated > wantUni.Evaluated || uni.Subsets > wantUni.Subsets {
				t.Errorf("trial %d: uniform baseline evaluated %d points in %d subsets, oracle %d in %d",
					trial, uni.Evaluated, uni.Subsets, wantUni.Evaluated, wantUni.Subsets)
			}
		}
	}
}

// TestMulticoreReadsEachPointOnce: one placement search looks every core
// point up at most once, over both sides, so its cache evaluates each
// distinct point once and serves no hit.
func TestMulticoreReadsEachPointOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		pt, weights := genTable(rng, 4, 1+trial%4)
		var bound Bounder
		if trial%2 == 1 {
			bound = testBounder{pt, weights, 4}
		}
		eval := testCoreEval(pt, weights)
		var mu sync.Mutex
		calls := map[string]int{}
		cache := NewMulticoreCache(func(p CorePoint) (Outcome, error) {
			mu.Lock()
			calls[p.Key()]++
			mu.Unlock()
			return eval(p)
		})
		co, uni, err := MulticoreExact(cache, pt, 2, 4, bound)
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range calls {
			if c > 1 {
				t.Errorf("trial %d: core point %s looked up %d times", trial, k, c)
			}
		}
		st := cache.Stats()
		if st.Hits != 0 || st.Misses != int64(len(calls)) || cache.Len() != len(calls) {
			t.Errorf("trial %d: %d hits, %d misses, Len %d for %d distinct points", trial, st.Hits, st.Misses, cache.Len(), len(calls))
		}
		if len(calls) < co.Evaluated || len(calls) > co.Evaluated+uni.Evaluated {
			t.Errorf("trial %d: %d distinct points for %d co-design and %d uniform visits",
				trial, len(calls), co.Evaluated, uni.Evaluated)
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
