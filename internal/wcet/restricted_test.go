package wcet

import (
	"fmt"

	"repro/internal/program"
)

// The restricted-geometry analysis, the oracle of the one-walk way
// pricing: Analyze's WarmByWays must hold, for every way count, exactly the
// warm bound Analyze computes on the cache restricted to that many ways.

// Restrict returns the platform as seen by an application owning `ways`
// dedicated ways of the shared cache (same clock, same set count, reduced
// associativity; see cachesim.Config.Restrict).
func (p Platform) Restrict(ways int) (Platform, error) {
	cfg, err := p.Cache.Restrict(ways)
	if err != nil {
		return Platform{}, err
	}
	return Platform{ClockHz: p.ClockHz, Cache: cfg}, nil
}

// AnalyzePartitioned analyzes p running on `ways` dedicated ways of plat's
// cache (a way partition): the must-analysis runs on the restricted
// geometry — identical set mapping, reduced associativity.
func AnalyzePartitioned(p *program.Program, plat Platform, ways int) (*Result, error) {
	if plat.Hier.Enabled() {
		return nil, fmt.Errorf("wcet: partitioned analysis does not support cache hierarchies")
	}
	if err := validateMustPolicy(plat.Cache, "L1 cache"); err != nil {
		return nil, err
	}
	restricted, err := plat.Restrict(ways)
	if err != nil {
		return nil, err
	}
	return Analyze(p, restricted)
}
