// Joint cache-partition + schedule co-design search (the Sun-et-al.
// extension of the paper's stage 2): the joint instantiation of the generic
// walk of search.go, and the exact searcher of exact.go, over the joint box
// of burst counts (m1..mn) and way partitions (w1..wn). It reuses the same
// evalcache keying as the schedule-only searchers — shared points key
// exactly like plain schedules, partitioned points append their partition.
//
// The exact search additionally tracks the optimum of the shared subspace,
// which is by construction the schedule-only optimum, so callers can report
// how much the partitioning axis buys on top of the paper's search.
package search

import (
	"repro/internal/engine/evalcache"
	"repro/internal/sched"
)

// JointEvalFunc evaluates the overall control performance of a feasible
// joint point. It must not retain j: the searchers reuse its storage.
type JointEvalFunc func(j sched.JointSchedule) (Outcome, error)

// JointCache memoizes joint-point evaluations; see evalcache for semantics.
type JointCache = PointCache[sched.JointSchedule]

// NewJointCache wraps eval in a sharded memoization cache suitable for
// sharing across hybrid starts and exhaustive sweeps.
func NewJointCache(eval JointEvalFunc) *JointCache {
	return evalcache.NewCache(eval)
}

// JointOptions tunes the joint hybrid search; see HybridOptions.
type JointOptions = HybridOptions[sched.JointSchedule]

// JointHybridResult aggregates all walks of a multi-start joint search.
type JointHybridResult = MultiStart[sched.JointSchedule]

// JointExhaustiveResult is the outcome of an exact joint search.
type JointExhaustiveResult = Enumeration[sched.JointSchedule]

// jointSpace is the joint box: schedule steps plus, on partitioned points,
// way moves, under the way budget and the idle-time constraint of each
// point's timing vector.
func jointSpace(pt sched.PartitionTimings) space[sched.JointSchedule] {
	return space[sched.JointSchedule]{
		feasible: pt.Feasible,
		neighbors: func(cur sched.JointSchedule, maxM int, dst []sched.JointSchedule) []sched.JointSchedule {
			return jointNeighbors(cur, maxM, pt.TotalWays(), dst)
		},
	}
}

// jointNeighbors appends every in-box neighbor of cur to dst: schedule
// steps, and for partitioned points the partition steps and transfers.
func jointNeighbors(cur sched.JointSchedule, maxM, totalWays int, dst []sched.JointSchedule) []sched.JointSchedule {
	next := func() *sched.JointSchedule {
		var nb *sched.JointSchedule
		dst, nb = nextSlot(dst)
		copyJoint(nb, cur)
		return nb
	}
	n := len(cur.M)
	for i := 0; i < n; i++ {
		for _, d := range [2]int{+1, -1} {
			if m := cur.M[i] + d; m >= 1 && m <= maxM {
				next().M[i] = m
			}
		}
	}
	if cur.Shared() {
		return dst
	}
	for i := 0; i < n; i++ {
		if cur.W[i]+1 <= totalWays {
			next().W[i]++
		}
		if cur.W[i]-1 >= 1 {
			next().W[i]--
		}
		for k := 0; k < n; k++ {
			if k == i || cur.W[k] <= 1 {
				continue
			}
			nb := next()
			nb.W[i]++
			nb.W[k]--
		}
	}
	return dst
}

// copyJoint overwrites *dst with src, reusing dst's storage. A shared src
// leaves dst.W empty, so dst is shared too.
func copyJoint(dst *sched.JointSchedule, src sched.JointSchedule) {
	dst.M = append(dst.M[:0], src.M...)
	dst.W = append(dst.W[:0], src.W...)
}

// JointHybrid runs the discrete ascent over the joint box from every start.
// The walk's moves are the schedule steps m_i +- 1 of the schedule-only
// search plus, on partitioned points, the partition steps w_i +- 1 (within
// the way budget) and the transfers (w_i + 1, w_j - 1) that move one way
// between applications at a fixed budget. The cache and concurrency
// contract is Hybrid's.
func JointHybrid(eval JointEvalFunc, pt sched.PartitionTimings, starts []sched.JointSchedule, opt JointOptions) (*JointHybridResult, error) {
	return hybrid(eval, jointSpace(pt), starts, opt)
}

// JointExact finds the best feasible joint point with burst lengths in
// [1, maxM] and any way partition, and the best shared-subspace point,
// through a (possibly shared) memoization cache. With a nil bound it
// evaluates every feasible point, over the process-wide concurrency
// governor with workers capping this search's share of the executor; with
// a bound it also cuts the subtrees the bound proves cannot win, and finds
// the identical optimum. Results are identical for any worker count.
//
// Like ExhaustiveCached, the pass is its cache's last reader and looks its
// points up with GetLast: the cache does not keep the points this pass
// evaluates, so a later Get of one of them would evaluate it again.
func JointExact(cache *JointCache, pt sched.PartitionTimings, bound Bounder, maxM, workers int) (*JointExhaustiveResult, error) {
	return exact(cache.GetLast, pt, bound, maxM, workers, false)
}
