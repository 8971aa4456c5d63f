package search

import "repro/internal/sched"

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
