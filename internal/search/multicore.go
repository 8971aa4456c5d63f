// Multi-core placement x partition x schedule co-design search.
//
// The paper's Section VI remark gives every core its own private cache, so
// once a task-to-core assignment is fixed the cores are independent: the
// overall P_all is the sum of per-core optima, and a core's optimum depends
// only on *which* applications it hosts. MulticoreExact exploits that
// decomposition. It enumerates placements canonically (set partitions into
// exactly nCores blocks, killing core-relabeling symmetry), solves every
// distinct application subset once with the exact searcher of this
// package, and shares solved subsets across placements.
//
// One call returns both sides of the sensitivity-vs-uniform comparison:
// the co-design and the uniform-split baseline over the same placements.
// Both may prune with the same admissible per-application bounds, at the
// placement level and inside each core, and both are pinned to find the
// unbounded optimum (internal/exp golden platforms). One walk of each
// subset's joint box serves both sides.
package search

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// CorePoint is one joint point of one core: the ascending global indices of
// the applications placed on that core, plus a joint (schedule, ways) point
// over them — in that order — against the core's private cache.
type CorePoint struct {
	Apps  []int
	Point sched.JointSchedule
}

// appsKey renders a global application subset as "c[i1 i2 ...]".
func appsKey(apps []int) string {
	var b strings.Builder
	b.Grow(4 + 3*len(apps))
	b.WriteString("c[")
	for i, a := range apps {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(a))
	}
	b.WriteByte(']')
	return b.String()
}

// Key returns the canonical memoization key: the subset prefix keeps
// records of different placements distinct, so a multicore cache can share
// a store namespace with the schedule and joint caches (no single-core key
// starts with "c[").
func (p CorePoint) Key() string { return appsKey(p.Apps) + "|" + p.Point.Key() }

// MemKey packs the subset, schedule and partition; the subset marks the key
// as a core point's, so it never equals a single-core point's key.
func (p CorePoint) MemKey() (sched.PointKey, error) {
	return sched.PackPoint(p.Apps, true, p.Point.M, p.Point.W)
}

// String renders the point as "c[i1 i2]:(m1, m2)x[w1 w2]".
func (p CorePoint) String() string { return appsKey(p.Apps) + ":" + p.Point.String() }

// CoreEvalFunc evaluates the weighted control performance of one core's
// joint point (weights keep their global values, so per-core values sum to
// a P_all comparable with single-core numbers). It must not retain the
// point's joint schedule: the searchers reuse its storage.
type CoreEvalFunc func(p CorePoint) (Outcome, error)

// MulticoreCache memoizes core-point evaluations; see evalcache for
// semantics.
type MulticoreCache = PointCache[CorePoint]

// CheckSubset reports whether idx is a valid core subset of n
// applications: nonempty, strictly ascending, within [0, n).
func CheckSubset(idx []int, n int) error {
	if len(idx) == 0 {
		return fmt.Errorf("search: empty application subset")
	}
	for k, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("search: subset app %d outside [0, %d)", i, n)
		}
		if k > 0 && idx[k-1] >= i {
			return fmt.Errorf("search: subset %v not strictly ascending", idx)
		}
	}
	return nil
}

// SubPartition restricts a partition-timing table to the applications in
// idx (strictly ascending global indices): the timing view of a core that
// hosts exactly those applications on a private cache of the platform's
// geometry. Rows alias the parent table.
func SubPartition(pt sched.PartitionTimings, idx []int) (sched.PartitionTimings, error) {
	if err := CheckSubset(idx, pt.Apps()); err != nil {
		return sched.PartitionTimings{}, err
	}
	sub := sched.PartitionTimings{
		Shared: make([]sched.AppTiming, len(idx)),
		ByWays: make([][]sched.AppTiming, len(pt.ByWays)),
	}
	for k, i := range idx {
		sub.Shared[k] = pt.Shared[i]
	}
	for w, row := range pt.ByWays {
		sub.ByWays[w] = make([]sched.AppTiming, len(idx))
		for k, i := range idx {
			sub.ByWays[w][k] = row[i]
		}
	}
	return sub, nil
}

// subBounder restricts a Bounder to an application subset: local index k is
// global application idx[k], so bounded per-core searches reuse the global
// bound tables (weights keep their global values).
type subBounder struct {
	b   Bounder
	idx []int
}

func (s subBounder) AppAt(i, w, m int, minGap float64) float64 {
	return s.b.AppAt(s.idx[i], w, m, minGap)
}
func (s subBounder) AppBest(i, w int) float64 { return s.b.AppBest(s.idx[i], w) }

// canonicalAssignment relabels an assignment's cores by first appearance
// (application 0's core becomes 0, the next new core 1, ...), validates
// every entry against nCores, and requires every core to host at least one
// application. Two assignments that differ only by a core permutation
// canonicalize identically, which is what lets the placement search
// deduplicate seeds against the canonical enumeration.
func canonicalAssignment(a []int, nCores int) ([]int, error) {
	if nCores < 1 {
		return nil, fmt.Errorf("search: %d cores", nCores)
	}
	if len(a) == 0 {
		return nil, fmt.Errorf("search: empty assignment")
	}
	relabel := make(map[int]int, nCores)
	out := make([]int, len(a))
	for i, c := range a {
		if c < 0 || c >= nCores {
			return nil, fmt.Errorf("search: app %d assigned to core %d of %d", i, c, nCores)
		}
		n, ok := relabel[c]
		if !ok {
			n = len(relabel)
			relabel[c] = n
		}
		out[i] = n
	}
	if len(relabel) != nCores {
		return nil, fmt.Errorf("search: assignment %v uses %d of %d cores", a, len(relabel), nCores)
	}
	return out, nil
}

// canonicalAssignments enumerates every canonical assignment of nApps
// applications onto exactly nCores cores — restricted-growth strings, in
// lexicographic order — up to limit entries. When the space is larger than
// limit it returns (nil, false) and callers fall back to heuristic seeds.
func canonicalAssignments(nApps, nCores, limit int) ([][]int, bool) {
	if nCores < 1 || nCores > nApps {
		return nil, true
	}
	var out [][]int
	cur := make([]int, nApps)
	overflow := false
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if overflow {
			return
		}
		// Remaining applications must still be able to populate the unused
		// cores.
		if nCores-1-maxUsed > nApps-i {
			return
		}
		if i == nApps {
			if maxUsed == nCores-1 {
				if len(out) >= limit {
					overflow = true
					return
				}
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		hi := maxUsed + 1
		if hi > nCores-1 {
			hi = nCores - 1
		}
		for c := 0; c <= hi; c++ {
			cur[i] = c
			nm := maxUsed
			if c > nm {
				nm = c
			}
			rec(i+1, nm)
		}
	}
	rec(0, -1)
	if overflow {
		return nil, false
	}
	return out, true
}

// assignmentSubsets splits a canonical assignment into per-core application
// subsets (ascending within each core, cores in canonical label order).
func assignmentSubsets(a []int, nCores int) [][]int {
	subsets := make([][]int, nCores)
	for i, c := range a {
		subsets[c] = append(subsets[c], i)
	}
	return subsets
}

// maxAssignments caps the canonical placement enumeration. Beyond it the
// search covers the placement seeds alone (Enumerated = false).
const maxAssignments = 2000

// placementSeeds returns the heuristic placements searched before the
// canonical enumeration, and alone when it overflows: the load-balanced
// placement by cold WCET on the shared taskset, then the cache-sensitivity
// placement. An application's sensitivity is how much its steady-state
// WCET improves from owning one way to owning the whole cache, or its
// cold-minus-warm WCET when there is no per-way table. Spreading the most
// sensitive applications over the cores pairs cache-hungry applications
// with insensitive ones, which leaves more ways for the partitions that
// profit from them. nCores must be in [1, pt.Apps()].
func placementSeeds(pt sched.PartitionTimings, nCores int) [][]int {
	cold := make([]float64, pt.Apps())
	sens := make([]float64, pt.Apps())
	for i, tm := range pt.Shared {
		cold[i] = tm.ColdWCET
		if len(pt.ByWays) > 0 {
			sens[i] = pt.ByWays[0][i].WarmWCET - pt.ByWays[len(pt.ByWays)-1][i].WarmWCET
		} else {
			sens[i] = tm.ColdWCET - tm.WarmWCET
		}
	}
	return [][]int{greedyPlacement(cold, nCores), greedyPlacement(sens, nCores)}
}

// greedyPlacement takes the applications by descending load (a stable
// sort, so equal loads keep index order) and places each on the
// least-loaded core. Load ties go to the core hosting fewer applications,
// then to the lowest index. The count tiebreak uses every core whenever
// there are at least as many applications as cores, even when all loads
// are equal (zero cache sensitivity on a 1-way platform, say).
func greedyPlacement(load []float64, nCores int) []int {
	order := make([]int, len(load))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return load[order[a]] > load[order[b]] })
	coreLoad := make([]float64, nCores)
	coreApps := make([]int, nCores)
	out := make([]int, len(load))
	for _, i := range order {
		c := 0
		for k := 1; k < nCores; k++ {
			if coreLoad[k] < coreLoad[c] ||
				(coreLoad[k] == coreLoad[c] && coreApps[k] < coreApps[c]) {
				c = k
			}
		}
		out[i] = c
		coreLoad[c] += load[i]
		coreApps[c]++
	}
	return out
}

// CoreSolution is the optimum of one core under one placement.
type CoreSolution struct {
	Apps  []int
	Point sched.JointSchedule
	Value float64
	Found bool
}

// MulticoreResult is the outcome of a placement search.
type MulticoreResult struct {
	Cores      int
	Assignment []int // winning canonical assignment (app -> core)
	PerCore    []CoreSolution
	BestValue  float64 // sum of per-core optima, in core order
	FoundBest  bool

	Assignments       int  // placements examined (after dedup)
	AssignmentsPruned int  // placements cut by the bound before any solve
	SubtreesPruned    int  // bound cuts inside per-core searches
	Subsets           int  // distinct application subsets solved
	Evaluated         int  // core points visited across all subset solves
	Feasible          int  // of those, constraint-feasible
	Enumerated        bool // full canonical enumeration was searched
}

// MulticoreExact is the placement search. It walks every canonical
// assignment of the applications onto nCores cores, or only the heuristic
// placement seeds when there are more than 2000 assignments, and solves
// every core with the exact joint search. One walk over the placements
// feeds two searches, each with its own counters:
//
//   - co, the placement x partition x schedule co-design;
//   - uniform, the uniform-partitioning baseline: every core is restricted
//     to the shared subspace plus the even split of its private cache over
//     its applications.
//
// A non-nil bound cuts whole placements before solving any core, and
// subtrees inside each core's joint box, on both sides. Traversal order
// and tie handling do not depend on the bound, so each side's optimum
// (assignment, per-core points and value bits) is the one found without
// it, with Evaluated strictly smaller whenever a cut fires.
//
// Each distinct application subset is solved once, for both sides, by one
// walk of its joint box that keeps both incumbents (see exactUniform), so
// no core point is looked up twice. Like JointExact, the search is its
// cache's last reader and looks its points up with GetLast: the cache does
// not keep the points this search evaluates.
func MulticoreExact(cache *MulticoreCache, pt sched.PartitionTimings, nCores, maxM int, bound Bounder) (co, uniform *MulticoreResult, err error) {
	if err := pt.Validate(); err != nil {
		return nil, nil, err
	}
	switch n := pt.Apps(); {
	case nCores < 1:
		return nil, nil, fmt.Errorf("search: %d cores", nCores)
	case nCores > n:
		return nil, nil, fmt.Errorf("search: %d cores exceed %d applications", nCores, n)
	case maxM < 1:
		return nil, nil, fmt.Errorf("search: multicore maxM %d < 1", maxM)
	}
	return placementSearch(cache, pt, nCores, maxM, bound, placementSeeds(pt, nCores), maxAssignments)
}

// placementOrder lists the placements in search order: the seeds first
// (canonicalized, deduplicated, in the given order), then the canonical
// enumeration up to limit entries. Strict-">" argmax selection follows
// this order on both sides. complete reports whether the enumeration fit.
func placementOrder(nApps, nCores int, seeds [][]int, limit int) (order [][]int, complete bool, err error) {
	seen := map[string]bool{}
	push := func(a []int) {
		k := fmt.Sprint(a)
		if !seen[k] {
			seen[k] = true
			order = append(order, a)
		}
	}
	for _, s := range seeds {
		c, err := canonicalAssignment(s, nCores)
		if err != nil {
			return nil, false, fmt.Errorf("search: placement seed %v: %w", s, err)
		}
		push(c)
	}
	enum, complete := canonicalAssignments(nApps, nCores, limit)
	for _, a := range enum {
		push(a)
	}
	if len(order) == 0 {
		return nil, false, fmt.Errorf("search: placement space exceeds %d assignments and no seeds given", limit)
	}
	return order, complete, nil
}

// The two sides of a placement search, indexing placements' per-side
// state.
const (
	coSide = iota
	uniformSide
)

// placements folds the placements into both sides' optima. It keeps the
// solved subsets, shared by the sides, and each side's result and the
// per-core solutions of the placement being folded.
type placements struct {
	cache *MulticoreCache
	pt    sched.PartitionTimings
	maxM  int
	bound Bounder

	// Placement-level bound tables (with a bound only).
	appBest, wayBestUpTo [][]float64

	solved  map[sched.PointKey]*subsetWalk
	res     [2]*MulticoreResult
	perCore [2][]CoreSolution
}

// subsetWalk is one subset's two-incumbent walk: each side's result, and
// whether the side has counted it yet.
type subsetWalk struct {
	walk    [2]*JointExhaustiveResult
	counted [2]bool
}

// placementSearch is MulticoreExact over the given seeds and enumeration
// cap, on arguments MulticoreExact has validated.
func placementSearch(cache *MulticoreCache, pt sched.PartitionTimings, nCores, maxM int, bound Bounder, seeds [][]int, limit int) (co, uniform *MulticoreResult, err error) {
	order, complete, err := placementOrder(pt.Apps(), nCores, seeds, limit)
	if err != nil {
		return nil, nil, err
	}
	p := &placements{cache: cache, pt: pt, maxM: maxM, bound: bound, solved: map[sched.PointKey]*subsetWalk{}}
	for side := range p.res {
		p.res[side] = &MulticoreResult{Cores: nCores, BestValue: math.Inf(-1), Enumerated: complete}
		p.perCore[side] = make([]CoreSolution, nCores)
	}
	if bound != nil {
		p.appBest, p.wayBestUpTo = boundTables(bound, pt.Apps(), pt.TotalWays())
	}
	for _, a := range order {
		subsets := assignmentSubsets(a, nCores)
		ub := math.Inf(1) // no bound: no placement is cut
		if bound != nil {
			ub = p.boundAssign(subsets)
		}
		for side := range p.res {
			if err := p.fold(side, a, subsets, ub); err != nil {
				return nil, nil, err
			}
		}
	}
	return p.res[coSide], p.res[uniformSide], nil
}

// boundAssign bounds a placement from above: an application on a core
// hosting k applications of a W-way private cache gets at most W-(k-1)
// dedicated ways, or the shared cache.
func (p *placements) boundAssign(subsets [][]int) float64 {
	ub := 0.0
	for _, sub := range subsets {
		cap := p.pt.TotalWays() - (len(sub) - 1)
		if cap < 0 {
			cap = 0
		}
		for _, i := range sub {
			t := p.appBest[i][0]
			if cap >= 1 && p.wayBestUpTo[i][cap] > t {
				t = p.wayBestUpTo[i][cap]
			}
			ub += t
		}
	}
	return ub
}

// solve returns one side's optimum of the core hosting the applications
// idx. Each distinct subset is walked once, for both sides, and a side
// counts the walk when it first uses the subset.
func (p *placements) solve(side int, idx []int) (CoreSolution, error) {
	key, err := sched.PackPoint(idx, true, nil, nil)
	if err != nil {
		return CoreSolution{}, err
	}
	sw, ok := p.solved[key]
	if !ok {
		sub, err := SubPartition(p.pt, idx)
		if err != nil {
			return CoreSolution{}, err
		}
		// The core's joint points are looked up as core points of idx.
		get := func(j sched.JointSchedule) (Outcome, bool, error) {
			return p.cache.GetLast(CorePoint{Apps: idx, Point: j})
		}
		var bound Bounder
		if p.bound != nil {
			bound = subBounder{p.bound, idx}
		}
		co, uni, err := exactUniform(get, sub, bound, p.maxM)
		if err != nil {
			return CoreSolution{}, err
		}
		sw = &subsetWalk{walk: [2]*JointExhaustiveResult{co, uni}}
		p.solved[key] = sw
	}
	r := sw.walk[side]
	if !sw.counted[side] {
		sw.counted[side] = true
		res := p.res[side]
		res.SubtreesPruned += r.Pruned
		res.Subsets++
		res.Evaluated += r.Evaluated
		res.Feasible += r.Feasible
	}
	return CoreSolution{Apps: idx, Point: r.Best, Value: r.BestValue, Found: r.FoundBest}, nil
}

// fold examines the canonical placement assign, whose per-core subsets
// are subsets and whose bound is ub, for one side, and keeps it when it
// beats that side's incumbent.
func (p *placements) fold(side int, assign []int, subsets [][]int, ub float64) error {
	res, perCore := p.res[side], p.perCore[side]
	res.Assignments++
	if res.FoundBest && ub <= res.BestValue {
		res.AssignmentsPruned++
		return nil
	}
	total := 0.0
	for c, idx := range subsets {
		sol, err := p.solve(side, idx)
		if err != nil {
			return err
		}
		if !sol.Found {
			return nil
		}
		perCore[c] = sol
		total += sol.Value
	}
	if total > res.BestValue {
		res.BestValue = total
		res.FoundBest = true
		res.Assignment = append([]int(nil), assign...)
		res.PerCore = make([]CoreSolution, len(perCore))
		for c, sol := range perCore {
			res.PerCore[c] = CoreSolution{
				Apps:  append([]int(nil), sol.Apps...),
				Point: sol.Point.Clone(),
				Value: sol.Value,
				Found: true,
			}
		}
	}
	return nil
}
