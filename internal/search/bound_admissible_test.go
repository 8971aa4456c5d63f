package search_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/search"
)

// timingTerm is application i's weighted contribution w_i * P_i to the
// timing objective under the idle-feasible schedule s, computed with the
// objective's own closed form.
func timingTerm(timings []sched.AppTiming, weight float64, s sched.Schedule, i int) float64 {
	a := timings[i]
	gap := sched.BurstGap(timings, s, i)
	hyper := sched.DerivedHyperPeriod(a, s[i], gap)
	limit := a.MaxIdle
	if limit <= 0 {
		limit = hyper
	}
	hbar := hyper / float64(s[i])
	return weight * (1 - (hbar+sched.DerivedMaxPeriod(a, s[i], gap))/(2*limit))
}

// checkAdmissible walks every regime of pt (the shared cache and each
// partition) and every idle-feasible schedule s of its box. For every
// prefix s[:d] it checks what branch-and-bound relies on: the prefix is not
// cut as infeasible, each assigned application's term is at most
// AppAt(i, w_i, s_i, minimal gap of the prefix), each free application's
// at most AppBest(i, w_i), and the bound summed in application order is at
// least the point's score.
func checkAdmissible(t *testing.T, pt sched.PartitionTimings, weights []float64, bound search.Bounder,
	score func(sched.JointSchedule) (search.Outcome, error), maxM int) (points int) {
	t.Helper()
	n := pt.Apps()
	tree, err := sched.NewFeasibleTree(pt.Shared, maxM)
	if err != nil {
		t.Fatal(err)
	}
	check := func(j sched.JointSchedule) error {
		points++
		timings, err := pt.Timings(j)
		if err != nil {
			return err
		}
		out, err := score(j)
		if err != nil {
			return err
		}
		wayOf := func(i int) int {
			if j.Shared() {
				return 0
			}
			return j.W[i]
		}
		for d := 0; d <= n; d++ {
			copy(tree.Cur, j.M)
			if err := tree.Reset(timings); err != nil {
				return err
			}
			if tree.PrefixInfeasible(d) {
				t.Fatalf("%v: feasible point's prefix of depth %d cut as infeasible", j, d)
			}
			ub := 0.0
			for i := 0; i < n; i++ {
				term := timingTerm(timings, weights[i], j.M, i)
				b := bound.AppBest(i, wayOf(i))
				if i < d {
					b = bound.AppAt(i, wayOf(i), j.M[i], tree.MinGap(i))
				}
				if term > b {
					t.Fatalf("%v, depth %d, app %d: term %v exceeds its bound %v", j, d, i, term, b)
				}
				ub += b
			}
			if out.Pall > ub {
				t.Fatalf("%v, depth %d: score %v exceeds the summed bound %v", j, d, out.Pall, ub)
			}
		}
		return nil
	}
	box, err := search.JointBox(pt, maxM)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range box {
		if err := check(j); err != nil {
			t.Fatal(err)
		}
	}
	return points
}

// TestTimingBounderAdmissible checks engine.TimingBounder directly — the
// bound the production branch-and-bound prunes with — over random
// partition-timing tables, some with unconstrained applications, and
// through the per-core restriction the placement search uses on every
// application subset.
func TestTimingBounderAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const maxM = 4
	points := 0
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(2)
		pt, weights := search.GenTable(rng, n, 2+rng.Intn(3))
		if trial%3 == 2 {
			// An unconstrained application in every regime.
			for _, row := range append([][]sched.AppTiming{pt.Shared}, pt.ByWays...) {
				row[0].MaxIdle = 0
			}
		}
		bound := engine.TimingBounder(pt, weights, maxM)
		points += checkAdmissible(t, pt, weights, bound, engine.JointTimingEval(pt, weights), maxM)

		mc := engine.MulticoreTimingEval(pt, weights)
		for mask := 1; mask < 1<<n; mask++ {
			var idx []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					idx = append(idx, i)
				}
			}
			sub, err := search.SubPartition(pt, idx)
			if err != nil {
				t.Fatal(err)
			}
			subWeights := make([]float64, len(idx))
			for k, i := range idx {
				subWeights[k] = weights[i]
			}
			score := func(j sched.JointSchedule) (search.Outcome, error) {
				return mc(search.CorePoint{Apps: idx, Point: j})
			}
			points += checkAdmissible(t, sub, subWeights, search.SubBounder(bound, idx), score, maxM)
		}
	}
	if points < 1000 {
		t.Errorf("only %d points checked", points)
	}
}
