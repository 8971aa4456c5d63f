package engine

import (
	"math"

	"repro/internal/sched"
	"repro/internal/search"
)

// timingBounder is the admissible per-application bound of the
// ObjectiveTiming objective, used by the bounded exact searches
// (search.JointExact, search.MulticoreExact).
//
// Admissibility argument, term by term against timingScore:
//
//   - Constrained apps (MaxIdle > 0): the app's contribution
//     w_i (1 - (hbar + hmax) / (2 t_idle)) is nonincreasing in the gap —
//     DerivedHyperPeriod and DerivedMaxPeriod are nondecreasing in it, and
//     bitwise so, because they are sums/maxima of terms monotone in the gap
//     and IEEE rounding is monotone. AppAt derives the periods exactly as
//     timingScore does and evaluates the same closed form (appTerm, so
//     the *exact* term by construction) at the minimal gap any completion
//     of the prefix can produce, so it upper-bounds (bitwise) the term at
//     every completion's true gap.
//   - Unconstrained apps (MaxIdle <= 0): timingScore normalizes by the
//     hyperperiod itself, giving 1 - (hbar + hmax)/(2 hyper) with
//     hbar = hyper/m and hmax >= hyper/m ... <= 1 - 1/m; the 1e-9 slack
//     absorbs the floating-point rounding of the real term.
//
// Terms are accumulated by the searchers in application order — the same
// order timingScore sums in — so per-term admissibility survives rounding
// of the accumulation too.
type timingBounder struct {
	pt      sched.PartitionTimings
	weights []float64
	maxM    int
}

// TimingBounder returns the tight admissible bound for ObjectiveTiming over
// the joint timing table: the exact search with it is pinned to reproduce
// the unbounded optimum bit for bit (see internal/search tests and the
// internal/exp golden platforms) while cutting most of the box.
func TimingBounder(pt sched.PartitionTimings, weights []float64, maxM int) search.Bounder {
	return timingBounder{pt: pt, weights: weights, maxM: maxM}
}

func (b timingBounder) timing(i, w int) sched.AppTiming {
	if w == 0 {
		return b.pt.Shared[i]
	}
	return b.pt.ByWays[w-1][i]
}

func (b timingBounder) AppAt(i, w, m int, minGap float64) float64 {
	if a := b.timing(i, w); a.MaxIdle > 0 {
		hyper := sched.DerivedHyperPeriod(a, m, minGap)
		return b.weights[i] * appTerm(a.MaxIdle, hyper, hyper/float64(m), sched.DerivedMaxPeriod(a, m, minGap))
	}
	return b.weights[i] * (1 - 1/float64(m) + 1e-9)
}

func (b timingBounder) AppBest(i, w int) float64 {
	best := math.Inf(-1)
	for m := 1; m <= b.maxM; m++ {
		if v := b.AppAt(i, w, m, 0); v > best {
			best = v
		}
	}
	return best
}
