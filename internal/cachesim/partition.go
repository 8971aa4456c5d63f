// Way partitioning: a shared set-associative cache split column-wise, each
// application owning a fixed subset of the ways of every set. Fills and
// evictions of one application are confined to its own ways, so applications
// cannot evict each other — the isolation mechanism behind the joint
// cache-partition + schedule co-design (Sun et al., PAPERS.md).
//
// Config.Restrict(ways) is the private-cache view of one partition: the
// same set count with associativity reduced to the owned way count. The
// tests' concrete simulation of the shared structure with per-way-mask
// replacement (partition_test.go) proves it equivalent to independent
// Restrict caches access for access; the WCET must-analysis prices every
// such view of a cache in one walk (internal/wcet).
package cachesim

import "fmt"

// Restrict returns the private-cache view of an application owning `ways`
// dedicated ways of this cache: the set count (and hence the address
// mapping) is unchanged, the associativity drops to the owned way count.
// Hit and miss timing carry over from the shared cache.
func (c Config) Restrict(ways int) (Config, error) {
	if ways < 1 || ways > c.Ways {
		return Config{}, fmt.Errorf("cachesim: restrict to %d ways of a %d-way cache", ways, c.Ways)
	}
	r := c
	r.Ways = ways
	r.Lines = c.Sets() * ways
	if err := r.Validate(); err != nil {
		return Config{}, err
	}
	return r, nil
}
