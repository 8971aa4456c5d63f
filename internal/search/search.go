// Package search implements the paper's second stage (Section IV): finding
// the schedule (m1, ..., mn) that maximizes the overall control performance.
//
// One search stack serves every space: the paper's schedule space
// (sched.Schedule), the joint cache partition + schedule space
// (sched.JointSchedule, joint.go), and the per-core solves of the
// multi-core placement search (multicore.go). It has two searchers:
//
//   - the exact searcher (exact.go): one depth-first walk of the joint box —
//     the shared subspace, then the way partitions, then each regime's
//     idle-feasible schedules — folded in enumeration order. Without a
//     Bounder it evaluates every feasible point, the brute-force baseline
//     the paper compares against (76 schedules in its case study); with one
//     it also cuts the subtrees an admissible bound proves cannot beat the
//     incumbent, and finds the identical optimum with fewer evaluations.
//     Exhaustive and ExhaustiveCached run it on the schedule box (the
//     shared subspace of a table with no partitions), JointExact on the
//     joint box and MulticoreExact, the one placement search, on every
//     core of every placement, for the co-design and for its uniform-split
//     baseline in one call;
//   - the hybrid walk: the paper's SQP-inspired discrete ascent. Per
//     dimension it fits a 1-D quadratic model through the two neighbors
//     (which for step size 1 reduces to comparing the neighbor values),
//     moves one step along the best feasible direction, tolerates slightly
//     worsening moves (the simulated-annealing flavor), and supports
//     parallel multi-start. Hybrid and JointHybrid instantiate it, generic
//     over the point type; the only per-space inputs are the neighbor
//     generator and the feasibility predicate.
//
// Both searchers run on top of the sharded memoization cache of
// internal/engine/evalcache. By default every hybrid walk gets a private
// cache so per-run evaluation counts stay comparable with the paper's (9
// and 18 evaluations for its two starts); passing a shared cache through
// Options.Cache deduplicates evaluations across starts and across searches,
// which is how the sweep engine (internal/engine) runs multi-start search.
// NewTiered adds the persistent disk tier (internal/store) underneath,
// preserving per-walk attribution exactly, so searches over a warm store
// report the same counts as cold ones.
//
// Evaluation counting mirrors the paper's efficiency metric: the number of
// distinct points whose (expensive) control-performance evaluation was
// actually executed.
//
// Per point the searchers allocate nothing of their own. Points are keyed
// in memory by their packed sched.PointKey (string keys are built only for
// a persistent tier), the exact searcher evaluates surviving points in its
// traversal's buffers (or, in a parallel pass, copies them into one reused
// chunk) instead of listing the box, and walks generate neighbors into
// reused storage, cloning only the accepted move and new incumbents.
// The contract that makes this safe: an evaluator must not retain the
// point it is given — the point is a view into a buffer the searcher
// reuses as soon as the call returns.
package search

import (
	"fmt"
	"math"

	"repro/internal/engine/evalcache"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// Outcome is the result of evaluating one point of a search space.
type Outcome struct {
	Pall     float64 // overall control performance (Eq. 2)
	Feasible bool    // all per-app constraints hold (Eq. 3: P_i >= 0, plus design feasibility)
}

// Point is the contract of a search-space point: the string and packed
// memoization keys (see evalcache.Keyed) and a deep copy.
type Point[P any] interface {
	evalcache.Keyed[sched.PointKey]
	Clone() P
}

// PointCache memoizes the outcomes of points of type P, keyed in memory by
// their packed PointKey; see evalcache for semantics.
type PointCache[P evalcache.Keyed[sched.PointKey]] = evalcache.Cache[P, sched.PointKey, Outcome]

// HybridOptions tunes the hybrid search over points of type P.
type HybridOptions[P Point[P]] struct {
	// Tolerance accepts non-improving moves whose objective loss is at
	// most this much (the simulated-annealing feature of Section IV).
	Tolerance float64
	// MaxSteps bounds the walk length per start (default 64).
	MaxSteps int
	// MaxM caps the per-dimension burst length of the search box
	// (default 16); the idle-time constraint usually binds first.
	MaxM int
	// Cache, when non-nil, is shared by every walk of the search (and by
	// anything else holding the same cache), so no point is evaluated
	// twice across starts. When nil, each walk keeps a private cache and
	// per-run evaluation counts match the paper's accounting.
	Cache *PointCache[P]
}

func (o HybridOptions[P]) withDefaults() HybridOptions[P] {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 64
	}
	if o.MaxM <= 0 {
		o.MaxM = 16
	}
	return o
}

// WalkStats describes one hybrid-search walk.
type WalkStats[P Point[P]] struct {
	Start       P
	Path        []P // accepted points, in order (including start)
	Best        P   // best feasible point seen
	BestValue   float64
	FoundBest   bool // false when no feasible point was seen
	Evaluations int  // distinct point evaluations executed by this walk
}

// MultiStart aggregates all walks of a multi-start hybrid search.
type MultiStart[P Point[P]] struct {
	Runs      []WalkStats[P]
	Best      P
	BestValue float64
	FoundBest bool
	// TotalEvaluations is the number of evaluations the walks of this
	// search actually executed: the paper's efficiency metric summed over
	// runs. With a shared cache an overlapping point is executed — and
	// counted — once, by the first walk to request it; with private
	// per-start caches a point revisited by k walks is executed k times,
	// so the total shrinks when a cache is shared.
	TotalEvaluations int
	// CacheStats reports hit/miss counters of the cache the search used
	// (the shared one when Cache was set, else the private ones summed).
	CacheStats evalcache.Stats
}

// Enumeration is the outcome of an exact search over a box.
type Enumeration[P Point[P]] struct {
	Evaluated int // points evaluated (the feasible box, less what a bound cut)
	Feasible  int // of those, points satisfying all constraints
	Best      P
	BestValue float64
	FoundBest bool

	// The shared-subspace optimum is exactly the schedule-only optimum of
	// the paper's search; comparing it against Best isolates the gain of
	// the partitioning axis. In the schedule space every point is shared,
	// so there it equals Best.
	BestShared      P
	BestSharedValue float64
	FoundShared     bool

	// Pruned counts the subtrees a Bounder cut (0 without one). Cuts by
	// idle infeasibility are not counted: the enumeration never evaluates
	// infeasible points either, so only bound cuts reduce Evaluated
	// relative to it.
	Pruned int
}

// space is what the generic walk needs to know about one search space: the
// constraint every visited point meets (malformed points are errors), and
// the moves from a point.
type space[P Point[P]] struct {
	feasible func(P) (bool, error)
	// neighbors appends every in-box neighbor of cur to dst, in the order
	// ties between equal gains are broken. It writes each neighbor into the
	// storage of the element it overwrites (see nextSlot), so a walk
	// reusing one buffer allocates no neighbors after its first steps.
	neighbors func(cur P, maxM int, dst []P) []P
}

// nextSlot extends dst by one element and returns it. Within dst's capacity
// the element keeps the value it held when dst was last that long, so
// neighbor generators overwrite its slices in place instead of allocating.
func nextSlot[P any](dst []P) ([]P, *P) {
	if len(dst) < cap(dst) {
		dst = dst[:len(dst)+1]
	} else {
		var zero P
		dst = append(dst, zero)
	}
	return dst, &dst[len(dst)-1]
}

// hybrid is the multi-start driver behind Hybrid and JointHybrid: one walk
// per start, concurrent over private caches or sequential over opt.Cache.
func hybrid[P Point[P]](eval func(P) (Outcome, error), sp space[P], starts []P, opt HybridOptions[P]) (*MultiStart[P], error) {
	if len(starts) == 0 {
		return nil, fmt.Errorf("search: no start points")
	}
	opt = opt.withDefaults()
	res := &MultiStart[P]{Runs: make([]WalkStats[P], len(starts)), BestValue: math.Inf(-1)}
	caches := make([]*PointCache[P], len(starts))
	for i := range caches {
		if caches[i] = opt.Cache; caches[i] == nil {
			caches[i] = evalcache.NewCache(eval)
		}
	}
	errs := make([]error, len(starts))
	run := func(i int) {
		stats, err := walk(caches[i], sp, starts[i], opt)
		if err != nil {
			errs[i] = err
			return
		}
		res.Runs[i] = *stats
	}
	if opt.Cache != nil {
		for i := range starts {
			if run(i); errs[i] != nil {
				break
			}
		}
	} else {
		parallel.Default().ForEach(len(starts), 0, run)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, r := range res.Runs {
		if r.FoundBest && r.BestValue > res.BestValue {
			res.BestValue = r.BestValue
			res.Best = r.Best.Clone()
			res.FoundBest = true
		}
		res.TotalEvaluations += r.Evaluations
	}
	if opt.Cache != nil {
		res.CacheStats = opt.Cache.Stats()
	} else {
		for _, c := range caches {
			st := c.Stats()
			res.CacheStats.Hits += st.Hits
			res.CacheStats.Misses += st.Misses
		}
	}
	return res, nil
}

// walk is one gradient-ascent walk with tolerance acceptance.
func walk[P Point[P]](cache *PointCache[P], sp space[P], start P, opt HybridOptions[P]) (*WalkStats[P], error) {
	if ok, err := sp.feasible(start); err != nil {
		return nil, fmt.Errorf("search: start %v: %w", start, err)
	} else if !ok {
		return nil, fmt.Errorf("search: start %v infeasible", start)
	}
	startKey, err := start.MemKey()
	if err != nil {
		return nil, fmt.Errorf("search: start %v: %w", start, err)
	}
	stats := &WalkStats[P]{Start: start.Clone(), BestValue: math.Inf(-1)}
	visited := map[sched.PointKey]bool{startKey: true}

	get := func(p P) (Outcome, error) {
		out, executed, err := cache.Get(p)
		if executed {
			stats.Evaluations++
		}
		return out, err
	}

	// cur is never modified in place: every accepted move is a fresh clone,
	// which the path shares.
	cur := start.Clone()
	curOut, err := get(cur)
	if err != nil {
		return nil, err
	}
	stats.Path = append(stats.Path, cur)
	note := func(p P, o Outcome) {
		if o.Feasible && o.Pall > stats.BestValue {
			stats.BestValue = o.Pall
			stats.Best = p.Clone()
			stats.FoundBest = true
		}
	}
	note(cur, curOut)

	var neighbors []P
	for step := 0; step < opt.MaxSteps; step++ {
		// Build the per-dimension 1-D models: for step size 1 the best
		// move along a dimension is simply the better feasible neighbor.
		// The steepest feasible direction is the first candidate of
		// maximal gain (the paper's fallback to the second best direction
		// and so on is the next one), so equal gains keep neighbor order.
		best, bestKey := -1, sched.PointKey{}
		var bestGain float64
		var bestOut Outcome
		neighbors = sp.neighbors(cur, opt.MaxM, neighbors[:0])
		for k, nb := range neighbors {
			key, err := nb.MemKey()
			if err != nil {
				return nil, err
			}
			if visited[key] {
				continue
			}
			if ok, err := sp.feasible(nb); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			out, err := get(nb)
			if err != nil {
				return nil, err
			}
			note(nb, out)
			if gain := out.Pall - curOut.Pall; best < 0 || gain > bestGain {
				best, bestKey, bestGain, bestOut = k, key, gain, out
			}
		}
		if best < 0 {
			break
		}
		if bestGain <= -opt.Tolerance {
			break // no move within tolerance: local optimum reached
		}
		cur = neighbors[best].Clone()
		curOut = bestOut
		visited[bestKey] = true
		stats.Path = append(stats.Path, cur)
	}
	return stats, nil
}

// add folds one evaluated point into the result, cloning the point only
// when it becomes an incumbent.
func (r *Enumeration[P]) add(p P, out Outcome, shared bool) {
	r.Evaluated++
	if !out.Feasible {
		return
	}
	r.Feasible++
	if out.Pall > r.BestValue {
		r.BestValue = out.Pall
		r.Best = p.Clone()
		r.FoundBest = true
	}
	if shared && out.Pall > r.BestSharedValue {
		r.BestSharedValue = out.Pall
		r.BestShared = p.Clone()
		r.FoundShared = true
	}
}

// EvalFunc evaluates the overall control performance of an idle-feasible
// schedule. It is the expensive stage-1 operation (holistic design of every
// application). It must not retain s: the searchers reuse its storage.
type EvalFunc func(s sched.Schedule) (Outcome, error)

// Cache is the schedule-evaluation memoization cache used by both
// searchers; see evalcache for semantics.
type Cache = PointCache[sched.Schedule]

// NewCache wraps eval in a sharded memoization cache suitable for sharing
// across hybrid starts and exhaustive sweeps.
func NewCache(eval EvalFunc) *Cache {
	return evalcache.NewCache(eval)
}

// Options tunes the schedule hybrid search.
type Options = HybridOptions[sched.Schedule]

// RunStats describes one schedule hybrid-search walk.
type RunStats = WalkStats[sched.Schedule]

// HybridResult aggregates all walks of a multi-start schedule search.
type HybridResult = MultiStart[sched.Schedule]

// ExhaustiveResult is the outcome of the brute-force schedule baseline.
type ExhaustiveResult = Enumeration[sched.Schedule]

// scheduleSpace is the paper's schedule box: m_i +- 1 steps, and the
// idle-time constraint (4) on the given taskset.
func scheduleSpace(apps []sched.AppTiming) space[sched.Schedule] {
	return space[sched.Schedule]{
		feasible:  func(s sched.Schedule) (bool, error) { return sched.IdleFeasible(apps, s) },
		neighbors: scheduleNeighbors,
	}
}

// scheduleNeighbors appends every in-box schedule step of cur to dst:
// dimension by dimension, +1 before -1.
func scheduleNeighbors(cur sched.Schedule, maxM int, dst []sched.Schedule) []sched.Schedule {
	for i := range cur {
		for _, d := range [2]int{+1, -1} {
			if m := cur[i] + d; m >= 1 && m <= maxM {
				var nb *sched.Schedule
				dst, nb = nextSlot(dst)
				copySchedule(nb, cur)
				(*nb)[i] = m
			}
		}
	}
	return dst
}

// copySchedule overwrites *dst with src, reusing dst's storage.
func copySchedule(dst *sched.Schedule, src sched.Schedule) {
	*dst = append((*dst)[:0], src...)
}

// Hybrid runs the discrete gradient ascent over the schedule box from
// every start. Without a shared cache the walks run in parallel, each with
// a private cache (the paper's accounting). With opt.Cache set the walks
// run sequentially in start order, so which walk pays for each overlapping
// evaluation — and therefore every per-run count — is deterministic; outer
// layers (the sweep engine) parallelize across searches instead.
func Hybrid(eval EvalFunc, apps []sched.AppTiming, starts []sched.Schedule, opt Options) (*HybridResult, error) {
	return hybrid(eval, scheduleSpace(apps), starts, opt)
}

// Exhaustive evaluates every idle-feasible schedule with burst lengths in
// [1, maxM] and returns the best feasible one.
func Exhaustive(eval EvalFunc, apps []sched.AppTiming, maxM int) (*ExhaustiveResult, error) {
	return ExhaustiveCached(NewCache(eval), apps, maxM, 1)
}

// ExhaustiveCached is Exhaustive running through a (possibly shared)
// memoization cache over the process-wide concurrency governor; workers
// caps this search's share of the executor. Results are identical to the
// serial baseline for any worker count.
//
// The pass is its cache's last reader: it reads what earlier searches left
// in the cache, but looks its points up with GetLast, so the cache does not
// keep the points this pass evaluates. A later Get of one of them would
// evaluate it again. Cache counters and Len are as if it kept them.
func ExhaustiveCached(cache *Cache, apps []sched.AppTiming, maxM, workers int) (*ExhaustiveResult, error) {
	get := func(j sched.JointSchedule) (Outcome, bool, error) { return cache.GetLast(j.M) }
	r, err := exact(get, sched.PartitionTimings{Shared: apps}, nil, maxM, workers, false)
	if err != nil {
		return nil, err
	}
	return &ExhaustiveResult{
		Evaluated:       r.Evaluated,
		Feasible:        r.Feasible,
		Best:            r.Best.M,
		BestValue:       r.BestValue,
		FoundBest:       r.FoundBest,
		BestShared:      r.BestShared.M,
		BestSharedValue: r.BestSharedValue,
		FoundShared:     r.FoundShared,
	}, nil
}
