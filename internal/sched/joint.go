// Joint cache-partition + schedule co-design points: a schedule (m1..mn)
// paired with an optional way partition (w1..wn) of the shared cache
// (Sun et al., "Co-Optimizing Cache Partitioning and Multi-Core Task
// Scheduling", PAPERS.md).
//
// Two cache regimes are modeled:
//
//   - shared (the paper's model, W empty): all applications contend for the
//     whole cache, so the first task of every burst starts cold and the
//     timing is the AppTiming (cold, warm) pair of wcet.Analyze;
//   - partitioned (W non-empty): application i owns w_i dedicated ways, no
//     inter-application eviction is possible, and in periodic steady state
//     every task — including the first of each burst — runs at the warm
//     bound of the reduced-associativity analysis (wcet.Result.WarmByWays),
//     so its AppTiming has ColdWCET == WarmWCET.
//
// The package stays platform-agnostic: PartitionTimings carries the
// pre-analyzed per-way-count timing table; apps.Table builds it from one
// WCET analysis per application.
package sched

import (
	"fmt"
	"strconv"
	"strings"
)

// Ways is a cache partition in way counts: entry i is the number of
// dedicated ways application i owns. An empty Ways means the applications
// share the whole cache (the paper's model).
type Ways []int

// Clone returns a copy of w.
func (w Ways) Clone() Ways {
	if len(w) == 0 {
		return nil
	}
	return append(Ways(nil), w...)
}

// Equal reports element-wise equality (two empty values are equal).
func (w Ways) Equal(o Ways) bool {
	if len(w) != len(o) {
		return false
	}
	for i := range w {
		if w[i] != o[i] {
			return false
		}
	}
	return true
}

// Sum returns the total number of ways the partition uses.
func (w Ways) Sum() int {
	s := 0
	for _, v := range w {
		s += v
	}
	return s
}

// Valid reports whether the partition assigns every one of n applications
// at least one way without exceeding totalWays in sum. An empty Ways is
// valid for any n (shared cache).
func (w Ways) Valid(n, totalWays int) bool {
	if len(w) == 0 {
		return true
	}
	if len(w) != n {
		return false
	}
	for _, v := range w {
		if v < 1 {
			return false
		}
	}
	return w.Sum() <= totalWays
}

// String renders the partition as "[w1 w2 ... wn]", or "shared" when empty.
// Like Schedule.String it doubles as cache-key material, so it builds the
// string directly.
func (w Ways) String() string {
	if len(w) == 0 {
		return "shared"
	}
	var b strings.Builder
	b.Grow(2 + 3*len(w))
	b.WriteByte('[')
	for i, v := range w {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte(']')
	return b.String()
}

// EvenWays splits totalWays evenly over n applications (floor division),
// returning nil when fewer than one way per application is available.
func EvenWays(n, totalWays int) Ways {
	if n < 1 || totalWays/n < 1 {
		return nil
	}
	w := make(Ways, n)
	for i := range w {
		w[i] = totalWays / n
	}
	return w
}

// JointSchedule is one point of the joint co-design space: the burst-count
// schedule M plus the way partition W (empty = shared cache).
type JointSchedule struct {
	M Schedule
	W Ways
}

// SharedPoint wraps a schedule as the shared-cache joint point.
func SharedPoint(m Schedule) JointSchedule { return JointSchedule{M: m.Clone()} }

// Shared reports whether the point uses the shared (unpartitioned) cache.
func (j JointSchedule) Shared() bool { return len(j.W) == 0 }

// Clone returns a deep copy of j.
func (j JointSchedule) Clone() JointSchedule {
	return JointSchedule{M: j.M.Clone(), W: j.W.Clone()}
}

// Equal reports whether both the schedule and the partition match.
func (j JointSchedule) Equal(o JointSchedule) bool {
	return j.M.Equal(o.M) && j.W.Equal(o.W)
}

// Key returns a canonical memoization key. Shared points key exactly like
// their plain schedule, so a joint cache over the shared subspace coincides
// with the schedule-only cache keying.
func (j JointSchedule) Key() string {
	if j.Shared() {
		return j.M.Key()
	}
	return j.M.Key() + "|w" + j.W.String()
}

// String renders the point as "(m1, ..., mn)" or "(m1, ..., mn)x[w1 ... wn]".
func (j JointSchedule) String() string {
	if j.Shared() {
		return j.M.String()
	}
	return j.M.String() + "x" + j.W.String()
}

// PartitionTimings is the pre-analyzed timing table of the joint co-design
// space for one taskset on one platform:
//
//   - Shared is the unpartitioned taskset (cold-start bursts, today's model);
//   - ByWays[w-1][i] is application i's steady-state timing when it owns w
//     dedicated ways: ColdWCET == WarmWCET == the warm bound of the
//     reduced-associativity must-analysis, because the partition's contents
//     survive other applications' bursts.
//
// len(ByWays) is the platform's total way count.
type PartitionTimings struct {
	Shared []AppTiming
	ByWays [][]AppTiming
}

// Apps returns the number of applications.
func (pt PartitionTimings) Apps() int { return len(pt.Shared) }

// TotalWays returns the number of ways of the underlying cache.
func (pt PartitionTimings) TotalWays() int { return len(pt.ByWays) }

// Validate checks the table's shape and per-entry sanity.
func (pt PartitionTimings) Validate() error {
	n := len(pt.Shared)
	if n == 0 {
		return fmt.Errorf("sched: partition timings with no applications")
	}
	for _, a := range pt.Shared {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	for w, row := range pt.ByWays {
		if len(row) != n {
			return fmt.Errorf("sched: partition timings for %d ways cover %d of %d apps", w+1, len(row), n)
		}
		for _, a := range row {
			if err := a.Validate(); err != nil {
				return fmt.Errorf("sched: partition timings for %d ways: %w", w+1, err)
			}
		}
	}
	return nil
}

// Timings returns the per-app timing vector of a joint point: the shared
// taskset for shared points, the per-way steady-state timings otherwise.
func (pt PartitionTimings) Timings(j JointSchedule) ([]AppTiming, error) {
	return pt.TimingsInto(nil, j)
}

// TimingsInto is Timings writing a partitioned point's vector into dst's
// storage (reallocated only when too short), so per-point callers keep it
// on the stack. A shared point returns pt.Shared itself.
func (pt PartitionTimings) TimingsInto(dst []AppTiming, j JointSchedule) ([]AppTiming, error) {
	if j.Shared() {
		return pt.Shared, nil
	}
	if !j.W.Valid(pt.Apps(), pt.TotalWays()) {
		return nil, fmt.Errorf("sched: partition %v invalid for %d apps on %d ways", j.W, pt.Apps(), pt.TotalWays())
	}
	dst = dst[:0]
	for i, w := range j.W {
		dst = append(dst, pt.ByWays[w-1][i])
	}
	return dst, nil
}

// StackApps is the application count up to which per-point timing vectors
// live in a fixed array on the caller's stack.
const StackApps = 16

// Feasible checks the joint feasibility of a point: the way budget
// (sum w_i <= total ways, every w_i >= 1) and the unchanged idle-time
// constraint (4) under the point's timing vector.
func (pt PartitionTimings) Feasible(j JointSchedule) (bool, error) {
	if !j.W.Valid(pt.Apps(), pt.TotalWays()) {
		return false, nil
	}
	var buf [StackApps]AppTiming
	timings, err := pt.TimingsInto(buf[:0], j)
	if err != nil {
		return false, err
	}
	return IdleFeasible(timings, j.M)
}
