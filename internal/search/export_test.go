package search

// Test-only exports for the external tests of this package, which import
// the engine's timing evaluators and bound.

// SubBounder is the per-core restriction of a Bounder to the applications
// idx, as the placement branch-and-bound uses it.
func SubBounder(b Bounder, idx []int) Bounder { return subBounder{b, idx} }

// GenTable draws a pseudo-random partition-timing table with weights.
var GenTable = genTable
