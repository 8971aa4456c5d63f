package search

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// partitions lists every way partition (w1..wn) with w_i >= 1 and
// sum <= totalWays in lexicographic order — with even, only the even split
// sched.EvenWays gives. There is none when totalWays < n.
func partitions(n, totalWays int, even bool) []sched.Ways {
	if even {
		if w := sched.EvenWays(n, totalWays); w != nil {
			return []sched.Ways{w}
		}
		return nil
	}
	var out []sched.Ways
	cur := make(sched.Ways, n)
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == n {
			out = append(out, cur.Clone())
			return
		}
		// Leave at least one way for each remaining application.
		for w := 1; used+w+(n-1-i) <= totalWays; w++ {
			cur[i] = w
			rec(i+1, used+w)
		}
	}
	if n >= 1 && totalWays >= n {
		rec(0, 0)
	}
	return out
}

// jointBox lists the feasible points of a joint box in enumeration order:
// the shared subspace, then every partition, each regime's schedules by the
// plain odometer over [1, maxM]^n (last dimension fastest) filtered by
// sched.IdleFeasible — nothing of the searcher's tree.
func jointBox(pt sched.PartitionTimings, maxM int, even bool) ([]sched.JointSchedule, error) {
	n := pt.Apps()
	if n == 0 || maxM < 1 {
		return nil, fmt.Errorf("oracle: nothing to enumerate (n=%d, maxM=%d)", n, maxM)
	}
	var out []sched.JointSchedule
	for _, w := range append([]sched.Ways{nil}, partitions(n, pt.TotalWays(), even)...) {
		timings, err := pt.Timings(sched.JointSchedule{W: w})
		if err != nil {
			return nil, err
		}
		for m := sched.RoundRobin(n); ; {
			ok, err := sched.IdleFeasible(timings, m)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, sched.JointSchedule{M: m.Clone(), W: w})
			}
			d := n - 1
			for ; d >= 0 && m[d] == maxM; d-- {
				m[d] = 1
			}
			if d < 0 {
				break
			}
			m[d]++
		}
	}
	return out, nil
}

// enumerate is the plain enumeration the exact searcher is pinned against:
// every point of the listed box evaluated in order and folded with a
// strict ">".
func enumerate(get getter, pt sched.PartitionTimings, maxM int, even bool) (*JointExhaustiveResult, error) {
	box, err := jointBox(pt, maxM, even)
	if err != nil {
		return nil, err
	}
	res := &JointExhaustiveResult{BestValue: math.Inf(-1), BestSharedValue: math.Inf(-1)}
	for _, j := range box {
		out, _, err := get(j)
		if err != nil {
			return nil, err
		}
		res.add(j, out, j.Shared())
	}
	return res, nil
}
