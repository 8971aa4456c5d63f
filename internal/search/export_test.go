package search

import (
	"repro/internal/engine/evalcache"
	"repro/internal/sched"
)

// Test-only exports for the external tests of this package, which import
// the engine's timing evaluators and bound.

// SubBounder is the per-core restriction of a Bounder to the applications
// idx, as the placement search uses it.
func SubBounder(b Bounder, idx []int) Bounder { return subBounder{b, idx} }

// GenTable draws a pseudo-random partition-timing table with weights.
var GenTable = genTable

// JointBox lists the feasible points of pt's joint box in enumeration
// order.
func JointBox(pt sched.PartitionTimings, maxM int) ([]sched.JointSchedule, error) {
	return jointBox(pt, maxM, false)
}

// Enumerate is the plain enumeration oracle over pt's joint box.
func Enumerate(cache *JointCache, pt sched.PartitionTimings, maxM int) (*JointExhaustiveResult, error) {
	return enumerate(cache.Get, pt, maxM, false)
}

// trivialBounder bounds every application by its weight: P_i <= 1 by
// construction (performance cannot exceed the reference), so w_i is always
// admissible. It prunes only boxes whose incumbent already reaches the
// weight sum, which no case-study design does, but it is valid for any
// objective.
type trivialBounder struct{ weights []float64 }

func (b trivialBounder) AppAt(i, w, m int, minGap float64) float64 { return b.weights[i] }
func (b trivialBounder) AppBest(i, w int) float64                  { return b.weights[i] }

// TrivialBounder returns the objective-agnostic admissible bound w_i * 1
// per application.
func TrivialBounder(weights []float64) Bounder { return trivialBounder{weights} }

// NewMulticoreCache wraps eval in a sharded memoization cache.
func NewMulticoreCache(eval CoreEvalFunc) *MulticoreCache {
	return evalcache.NewCache(eval)
}
