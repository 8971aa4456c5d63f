// Multi-core placement x partition x schedule co-design search.
//
// The paper's Section VI remark gives every core its own private cache, so
// once a task-to-core assignment is fixed the cores are independent: the
// overall P_all is the sum of per-core optima, and a core's optimum depends
// only on *which* applications it hosts. The searchers below exploit that
// decomposition — placements are enumerated canonically (set partitions
// into exactly nCores blocks, killing core-relabeling symmetry), every
// distinct application subset is solved once by the exact searcher of this
// package, and solved subsets are shared across placements.
//
// MulticoreExact is one call for both modes: without a Bounder it is the
// brute-force baseline; with one it prunes whole placements with the same
// admissible per-application bounds it cuts subtrees with inside each core,
// and is pinned to find the identical optimum (internal/exp golden
// platforms).
package search

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/engine/evalcache"
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

// NewMulticoreCache wraps eval in a sharded memoization cache.
func NewMulticoreCache(eval CoreEvalFunc) *MulticoreCache {
	return evalcache.NewCache(0, eval)
}

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

// CanonicalAssignment relabels an assignment's cores by first appearance
// (application 0's core becomes 0, the next new core 1, ...), validates
// every entry against nCores, and requires every core to host at least one
// application. Two assignments that differ only by a core permutation
// canonicalize identically, which is what lets the placement search
// deduplicate seeds against the canonical enumeration.
func CanonicalAssignment(a []int, nCores int) ([]int, error) {
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

// MulticoreOptions tunes the placement search.
type MulticoreOptions struct {
	// MaxM caps per-core burst lengths (required, >= 1).
	MaxM int
	// Bounder, when non-nil, supplies the admissible per-application
	// bounds that prune placements and each core's subtrees.
	Bounder Bounder
	// Seeds are placement heuristics (app -> core) searched first, in
	// order, after canonicalization and deduplication. They are mandatory
	// coverage: when the canonical enumeration exceeds MaxAssignments only
	// the seeds are searched.
	Seeds [][]int
	// MaxAssignments caps the canonical placement enumeration (default
	// 2000). Beyond it the search is heuristic (Enumerated = false).
	MaxAssignments int
	// Uniform restricts every core to the uniform way split: the shared
	// subspace plus the single even partition of the core's private cache
	// over its applications — the "uniform partitioning" baseline of the
	// sensitivity-vs-uniform comparison.
	Uniform bool
}

func (o MulticoreOptions) withDefaults() MulticoreOptions {
	if o.MaxAssignments <= 0 {
		o.MaxAssignments = 2000
	}
	return o
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

// MulticoreExact is the placement search: every canonical assignment (or
// the seeds, when the space exceeds MaxAssignments), every core solved by
// the exact joint search. With opt.Bounder set, the per-application bounds
// cut whole placements (before solving any core) and subtrees inside each
// core's joint box; the traversal order and tie handling do not change, so
// the optimum — assignment, per-core points, and value bits — is the one
// found without a bound, with Evaluated strictly smaller whenever any cut
// fires.
func MulticoreExact(cache *MulticoreCache, pt sched.PartitionTimings, nCores int, opt MulticoreOptions) (*MulticoreResult, error) {
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	n := pt.Apps()
	if nCores < 1 {
		return nil, fmt.Errorf("search: %d cores", nCores)
	}
	if nCores > n {
		return nil, fmt.Errorf("search: %d cores exceed %d applications", nCores, n)
	}
	opt = opt.withDefaults()
	if opt.MaxM < 1 {
		return nil, fmt.Errorf("search: multicore maxM %d < 1", opt.MaxM)
	}

	// Placement order: seeds first (canonicalized, deduplicated, in the
	// given order), then the canonical enumeration. Both modes share this
	// order, so strict-">" argmax selection is pinned between them.
	var order [][]int
	seen := map[string]bool{}
	push := func(a []int) {
		k := fmt.Sprint(a)
		if !seen[k] {
			seen[k] = true
			order = append(order, a)
		}
	}
	for _, s := range opt.Seeds {
		c, err := CanonicalAssignment(s, nCores)
		if err != nil {
			return nil, fmt.Errorf("search: placement seed %v: %w", s, err)
		}
		push(c)
	}
	enum, complete := canonicalAssignments(n, nCores, opt.MaxAssignments)
	for _, a := range enum {
		push(a)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("search: placement space exceeds %d assignments and no seeds given", opt.MaxAssignments)
	}

	res := &MulticoreResult{Cores: nCores, BestValue: math.Inf(-1), Enumerated: complete}

	// Placement-level bound tables (with a bound only): an application on
	// a core hosting k applications of a W-way private cache gets at most
	// W-(k-1) dedicated ways, or the shared cache.
	var appBest, wayBestUpTo [][]float64
	if opt.Bounder != nil {
		appBest, wayBestUpTo = boundTables(opt.Bounder, n, pt.TotalWays())
	}
	boundAssign := func(subsets [][]int) float64 {
		ub := 0.0
		for _, sub := range subsets {
			cap := pt.TotalWays() - (len(sub) - 1)
			if cap < 0 {
				cap = 0
			}
			for _, i := range sub {
				t := appBest[i][0]
				if cap >= 1 && wayBestUpTo[i][cap] > t {
					t = wayBestUpTo[i][cap]
				}
				ub += t
			}
		}
		return ub
	}

	solved := map[sched.PointKey]CoreSolution{}
	solve := func(idx []int) (CoreSolution, error) {
		key, err := sched.PackPoint(idx, true, nil, nil)
		if err != nil {
			return CoreSolution{}, err
		}
		if sol, ok := solved[key]; ok {
			return sol, nil
		}
		sub, err := SubPartition(pt, idx)
		if err != nil {
			return CoreSolution{}, err
		}
		// The core's joint points are looked up as core points of idx.
		get := func(j sched.JointSchedule) (Outcome, bool, error) {
			return cache.Get(CorePoint{Apps: idx, Point: j})
		}
		var bound Bounder
		if opt.Bounder != nil {
			bound = subBounder{opt.Bounder, idx}
		}
		r, err := exact(get, sub, bound, opt.MaxM, 1, opt.Uniform)
		if err != nil {
			return CoreSolution{}, err
		}
		res.SubtreesPruned += r.Pruned
		sol := CoreSolution{Apps: idx, Point: r.Best, Value: r.BestValue, Found: r.FoundBest}
		solved[key] = sol
		res.Subsets++
		res.Evaluated += r.Evaluated
		res.Feasible += r.Feasible
		return sol, nil
	}

	perCore := make([]CoreSolution, nCores)
	for _, a := range order {
		res.Assignments++
		subsets := assignmentSubsets(a, nCores)
		if opt.Bounder != nil && res.FoundBest && boundAssign(subsets) <= res.BestValue {
			res.AssignmentsPruned++
			continue
		}
		total := 0.0
		ok := true
		for c, idx := range subsets {
			sol, err := solve(idx)
			if err != nil {
				return nil, err
			}
			if !sol.Found {
				ok = false
				break
			}
			perCore[c] = sol
			total += sol.Value
		}
		if !ok {
			continue
		}
		if total > res.BestValue {
			res.BestValue = total
			res.FoundBest = true
			res.Assignment = append([]int(nil), a...)
			res.PerCore = make([]CoreSolution, nCores)
			for c := range perCore {
				res.PerCore[c] = CoreSolution{
					Apps:  append([]int(nil), perCore[c].Apps...),
					Point: perCore[c].Point.Clone(),
					Value: perCore[c].Value,
					Found: true,
				}
			}
		}
	}
	return res, nil
}
