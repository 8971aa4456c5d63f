// Two-level cache hierarchies: an L1 (the existing Config) backed by a
// unified L2, in one of two arrangements:
//
//   - inclusive (mostly-inclusive, the default): a memory miss fills both
//     levels, an L2 hit refreshes the L2 recency and fills the L1, and no
//     back-invalidation is performed — L2 evictions leave the L1 copy alone,
//     the arrangement of most real L2s; and
//   - exclusive (victim cache): the levels hold disjoint contents — an L2
//     hit promotes the line into the L1 and removes it from the L2, and
//     every valid line the L1 evicts is demoted into the L2.
//
// Timing: an L1 hit costs the L1's HitCycles, an L1 miss that hits the L2
// costs the L2's HitCycles, and a miss in both levels costs the L1's
// MissCycles (the memory latency). The WCET layer (internal/wcet) runs a
// multi-level must-analysis against this model and cross-checks it with the
// exact HierCache simulation below, exactly like the single-level pair.
package cachesim

import "fmt"

// Hierarchy configures the optional second cache level of a platform. The
// zero value disables it, leaving the single-level model unchanged.
type Hierarchy struct {
	// L2 is the second-level geometry and timing: L2.HitCycles is the cost
	// of an access that misses the L1 and hits the L2, and L2.MissCycles
	// must equal the L1's MissCycles (there is one memory behind the
	// hierarchy).
	L2 Config
	// Exclusive selects the victim-cache arrangement; false is inclusive.
	Exclusive bool
}

// Enabled reports whether a second level is configured at all.
func (h Hierarchy) Enabled() bool { return h.L2.Lines > 0 }

// Validate checks the hierarchy against the first-level configuration it
// extends. A disabled hierarchy is always valid.
func (h Hierarchy) Validate(l1 Config) error {
	if !h.Enabled() {
		return nil
	}
	if err := l1.Validate(); err != nil {
		return err
	}
	if err := h.L2.Validate(); err != nil {
		return err
	}
	switch {
	case h.L2.LineSize != l1.LineSize:
		return fmt.Errorf("cachesim: hierarchy line sizes differ: L1 %d, L2 %d", l1.LineSize, h.L2.LineSize)
	case h.L2.HitCycles < l1.HitCycles || h.L2.HitCycles > l1.MissCycles:
		return fmt.Errorf("cachesim: L2 hit cost %d outside [L1 hit %d, memory miss %d]",
			h.L2.HitCycles, l1.HitCycles, l1.MissCycles)
	case h.L2.MissCycles != l1.MissCycles:
		return fmt.Errorf("cachesim: L2 miss cost %d must equal the memory cost %d (one memory behind the hierarchy)",
			h.L2.MissCycles, l1.MissCycles)
	}
	return nil
}

// The hierarchy simulator needs three primitives the public single-level API
// composes differently: a probe that refreshes recency without filling, a
// fill that reports the victim it displaced, and an invalidation. They bump
// the replacement clock like Access but leave the per-cache Stats alone —
// HierCache accounts accesses once, at the hierarchy level.

// lookupTouch probes for addr's line and refreshes replacement state on a
// hit, without filling on a miss.
func (c *Cache) lookupTouch(addr uint32) bool {
	_, set, tag := c.locate(addr)
	c.clock++
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			c.touch(set, i)
			return true
		}
	}
	return false
}

// fill inserts addr's line (which must not be present), returning the valid
// line it evicted, if any.
func (c *Cache) fill(addr uint32) (evictedLine uint32, evicted bool) {
	_, set, tag := c.locate(addr)
	c.clock++
	v := c.victim(set)
	old := c.sets[set][v]
	if old.valid {
		evictedLine, evicted = old.tag*c.geom.NumSets+uint32(set), true
	}
	c.sets[set][v] = way{valid: true, tag: tag, order: c.clock}
	c.touch(set, v)
	return evictedLine, evicted
}

// drop invalidates addr's line if present, leaving replacement state of the
// other ways untouched.
func (c *Cache) drop(addr uint32) bool {
	_, set, tag := c.locate(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			ws[i] = way{}
			return true
		}
	}
	return false
}

// lineAddr returns a representative address inside a memory line, for
// re-entering the lookup path with a victim line number.
func (c *Cache) lineAddr(line uint32) uint32 { return line << c.geom.lineShift }

// HierCache is a concrete two-level cache instance: the exact simulator the
// multi-level WCET bounds are cross-checked against.
type HierCache struct {
	l1, l2 *Cache
	excl   bool
	l2hit  int
	stats  Stats
}

// NewHier constructs an empty two-level cache. The hierarchy must be
// enabled and valid for the given L1 configuration.
func NewHier(l1 Config, h Hierarchy) (*HierCache, error) {
	if !h.Enabled() {
		return nil, fmt.Errorf("cachesim: hierarchy is disabled (no L2 lines)")
	}
	if err := h.Validate(l1); err != nil {
		return nil, err
	}
	c1, err := New(l1)
	if err != nil {
		return nil, err
	}
	c2, err := New(h.L2)
	if err != nil {
		return nil, err
	}
	return &HierCache{l1: c1, l2: c2, excl: h.Exclusive, l2hit: h.L2.HitCycles}, nil
}

// MustNewHier is NewHier that panics on configuration errors.
func MustNewHier(l1 Config, h Hierarchy) *HierCache {
	c, err := NewHier(l1, h)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns a deep copy of both levels and the statistics.
func (c *HierCache) Clone() *HierCache {
	return &HierCache{l1: c.l1.Clone(), l2: c.l2.Clone(), excl: c.excl, l2hit: c.l2hit, stats: c.stats}
}

// Stats returns the hierarchy-level statistics: Hits counts accesses served
// by either level, Misses those that went to memory.
func (c *HierCache) Stats() Stats { return c.stats }

// Access simulates one instruction fetch: level is 1 for an L1 hit, 2 for
// an L2 hit, and 3 for a memory access, with the corresponding cycle cost.
func (c *HierCache) Access(addr uint32) (level, cycles int) {
	c.stats.Accesses++
	if c.l1.lookupTouch(addr) {
		c.stats.Hits++
		cycles = c.l1.cfg.HitCycles
		c.stats.Cycles += int64(cycles)
		return 1, cycles
	}
	if c.excl {
		level, cycles = c.accessExclusive(addr)
	} else {
		level, cycles = c.accessInclusive(addr)
	}
	if level == 2 {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.stats.Cycles += int64(cycles)
	return level, cycles
}

// accessInclusive handles an L1 miss in the mostly-inclusive arrangement:
// an L2 hit refreshes the L2 and fills the L1; a memory miss fills both
// levels. Neither fill back-invalidates the other level.
func (c *HierCache) accessInclusive(addr uint32) (level, cycles int) {
	if c.l2.lookupTouch(addr) {
		c.l1.fill(addr)
		return 2, c.l2hit
	}
	c.l1.fill(addr)
	c.l2.fill(addr)
	return 3, c.l1.cfg.MissCycles
}

// accessExclusive handles an L1 miss in the victim-cache arrangement: an L2
// hit promotes the line into the L1 and removes it from the L2, a memory
// miss fills the L1 only, and in both cases a valid line the L1 evicted is
// demoted into the L2.
func (c *HierCache) accessExclusive(addr uint32) (level, cycles int) {
	level, cycles = 3, c.l1.cfg.MissCycles
	if c.l2.Contains(addr) {
		c.l2.drop(addr)
		level, cycles = 2, c.l2hit
	}
	if victim, ok := c.l1.fill(addr); ok {
		c.l2.fill(c.l2.lineAddr(victim))
	}
	return level, cycles
}

// AccessRun simulates n back-to-back fetches falling into addr's single
// line: the first fetch probes the hierarchy, the remaining n-1 hit the L1.
func (c *HierCache) AccessRun(addr uint32, n int) (cycles int) {
	if n <= 0 {
		return 0
	}
	_, cyc := c.Access(addr)
	rest := (n - 1) * c.l1.cfg.HitCycles
	c.stats.Accesses += n - 1
	c.stats.Hits += n - 1
	c.stats.Cycles += int64(rest)
	return cyc + rest
}
