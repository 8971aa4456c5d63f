package wcet

import (
	"repro/internal/cachesim"
	"repro/internal/program"
)

// SimulateOn executes p once against the provided (shared) cache, returning
// the cycle count. The cache is mutated; schedule-level integration tests
// use this to interleave multiple applications on one cache.
func SimulateOn(p *program.Program, c *cachesim.Cache) int64 {
	return simulateNode(p.Root, flatCache{c})
}
