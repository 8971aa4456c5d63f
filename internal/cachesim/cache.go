// Package cachesim implements the on-chip instruction-cache model of the
// paper's platform: a parameterized set-associative cache with configurable
// replacement policy and hit/miss cycle costs (the paper's configuration is
// 128 lines of 16 bytes, direct-mapped semantics, 1-cycle hits and 100-cycle
// misses on an Infineon XC23xxB-class microcontroller at 20 MHz).
//
// The simulator is exact and deterministic: the WCET layer replays
// worst-case instruction-fetch traces through it to obtain cold-cache WCETs
// and cache-reuse timings.
package cachesim

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement policy of a set-associative cache.
type Policy int

const (
	// LRU evicts the least-recently-used way.
	LRU Policy = iota
	// FIFO evicts ways in insertion order regardless of later hits.
	FIFO
	// PLRU uses a tree-based pseudo-LRU (ways must be a power of two).
	PLRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case PLRU:
		return "PLRU"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config describes a cache geometry and its timing.
type Config struct {
	Lines      int    // total number of cache lines (e.g. 128)
	LineSize   int    // bytes per line, a power of two (e.g. 16)
	Ways       int    // associativity; 1 means direct-mapped
	Policy     Policy // replacement policy (ignored for direct-mapped)
	HitCycles  int    // cycles for a fetch that hits (e.g. 1)
	MissCycles int    // cycles for a fetch that misses (e.g. 100)
}

// PaperConfig returns the cache configuration of the paper's experimental
// section: 128 lines x 16 bytes, direct-mapped, 1-cycle hit, 100-cycle miss.
func PaperConfig() Config {
	return Config{Lines: 128, LineSize: 16, Ways: 1, Policy: LRU, HitCycles: 1, MissCycles: 100}
}

// Validate checks structural constraints on the configuration.
func (c Config) Validate() error {
	switch {
	case c.Lines <= 0:
		return fmt.Errorf("cachesim: Lines must be positive, got %d", c.Lines)
	case c.LineSize <= 0 || bits.OnesCount(uint(c.LineSize)) != 1:
		return fmt.Errorf("cachesim: LineSize must be a positive power of two, got %d", c.LineSize)
	case c.Ways <= 0 || c.Lines%c.Ways != 0:
		return fmt.Errorf("cachesim: Ways (%d) must be positive and divide Lines (%d)", c.Ways, c.Lines)
	case c.Policy == PLRU && bits.OnesCount(uint(c.Ways)) != 1:
		return fmt.Errorf("cachesim: PLRU requires power-of-two ways, got %d", c.Ways)
	case c.HitCycles <= 0 || c.MissCycles < c.HitCycles:
		return fmt.Errorf("cachesim: need 0 < HitCycles (%d) <= MissCycles (%d)", c.HitCycles, c.MissCycles)
	}
	return nil
}

// Sets returns the number of cache sets.
func (c Config) Sets() int { return c.Lines / c.Ways }

// Geometry is the precomputed address arithmetic of a cache configuration:
// the line/set/tag split with the divisions hoisted out (shift/mask when the
// counts are powers of two, which the paper platform's are). Both the
// concrete cache and the WCET must-analysis derive it once per instance so
// their access paths stay division-free and cannot diverge.
type Geometry struct {
	NumSets   uint32
	lineShift uint   // log2(LineSize); LineSize is validated a power of two
	setsPow2  bool   // set count is a power of two: mask/shift apply
	setMask   uint32 // NumSets-1 when setsPow2
	setShift  uint   // log2(NumSets) when setsPow2
}

// Geometry precomputes the address split for a validated configuration.
func (c Config) Geometry() Geometry {
	g := Geometry{
		NumSets:   uint32(c.Sets()),
		lineShift: uint(bits.TrailingZeros(uint(c.LineSize))),
	}
	if bits.OnesCount(uint(g.NumSets)) == 1 {
		g.setsPow2 = true
		g.setMask = g.NumSets - 1
		g.setShift = uint(bits.TrailingZeros(uint(g.NumSets)))
	}
	return g
}

// Line returns the memory line number containing addr.
func (g Geometry) Line(addr uint32) uint32 { return addr >> g.lineShift }

// Set returns the cache set a memory line maps to.
func (g Geometry) Set(line uint32) int {
	if g.setsPow2 {
		return int(line & g.setMask)
	}
	return int(line % g.NumSets)
}

// Tag returns the tag of a memory line.
func (g Geometry) Tag(line uint32) uint32 {
	if g.setsPow2 {
		return line >> g.setShift
	}
	return line / g.NumSets
}

// Locate splits addr into its memory line, cache set, and tag.
func (g Geometry) Locate(addr uint32) (line uint32, set int, tag uint32) {
	line = addr >> g.lineShift
	return line, g.Set(line), g.Tag(line)
}

// Stats accumulates access counts and the cycle total of a simulation.
type Stats struct {
	Accesses int
	Hits     int
	Misses   int
	Cycles   int64
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Cycles += other.Cycles
}

// HitRate returns Hits/Accesses, or 0 for an empty run.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type way struct {
	valid bool
	tag   uint32
	order int64 // recency (LRU) or insertion (FIFO) stamp
}

// Cache is a concrete simulated cache instance.
type Cache struct {
	cfg   Config
	sets  [][]way
	plru  []uint64 // per-set PLRU tree bits
	clock int64
	stats Stats

	// geom hoists the address arithmetic out of Config so the access path
	// performs no divisions (cfg.Sets() costs a divide per call and the
	// line/set/tag split two more).
	geom Geometry
}

// New constructs an empty cache for the given configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	c.sets = make([][]way, cfg.Sets())
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	c.plru = make([]uint64, cfg.Sets())
	c.geom = cfg.Geometry()
	return c, nil
}

// locate splits addr into its memory line, cache set, and tag using the
// precomputed geometry.
func (c *Cache) locate(addr uint32) (line uint32, set int, tag uint32) {
	return c.geom.Locate(addr)
}

// MustNew is New that panics on configuration errors; for tests and static
// platform tables.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics since construction.
func (c *Cache) Stats() Stats { return c.stats }

// Flush invalidates all cache contents (cold cache) and keeps statistics.
func (c *Cache) Flush() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = way{}
		}
		c.plru[i] = 0
	}
}

// Clone returns a deep copy of the cache including contents, replacement
// state, and statistics.
func (c *Cache) Clone() *Cache {
	n := &Cache{cfg: c.cfg, clock: c.clock, stats: c.stats, geom: c.geom}
	n.sets = make([][]way, len(c.sets))
	for i := range c.sets {
		n.sets[i] = append([]way(nil), c.sets[i]...)
	}
	n.plru = append([]uint64(nil), c.plru...)
	return n
}

// Contains reports whether the line containing addr is currently cached,
// without updating replacement state or statistics.
func (c *Cache) Contains(addr uint32) bool {
	_, set, tag := c.locate(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Access simulates one instruction fetch from addr, updating contents,
// replacement state and statistics. It returns true on a hit and the cycle
// cost of the access.
func (c *Cache) Access(addr uint32) (hit bool, cycles int) {
	_, set, tag := c.locate(addr)
	c.clock++
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			c.touch(set, i)
			c.stats.Accesses++
			c.stats.Hits++
			c.stats.Cycles += int64(c.cfg.HitCycles)
			return true, c.cfg.HitCycles
		}
	}
	// Miss: fill into the victim way.
	v := c.victim(set)
	ws[v] = way{valid: true, tag: tag, order: c.clock}
	c.touch(set, v)
	c.stats.Accesses++
	c.stats.Misses++
	c.stats.Cycles += int64(c.cfg.MissCycles)
	return false, c.cfg.MissCycles
}

// AccessRun simulates n back-to-back instruction fetches that all fall into
// the single cache line containing addr: the first fetch may miss (filling
// the line), the remaining n-1 fetches hit. It returns the total cycles.
func (c *Cache) AccessRun(addr uint32, n int) (hitFirst bool, cycles int) {
	if n <= 0 {
		return true, 0
	}
	hit, cyc := c.Access(addr)
	rest := (n - 1) * c.cfg.HitCycles
	c.stats.Accesses += n - 1
	c.stats.Hits += n - 1
	c.stats.Cycles += int64(rest)
	return hit, cyc + rest
}

// touch updates replacement metadata after an access to way i of set.
func (c *Cache) touch(set, i int) {
	switch c.cfg.Policy {
	case LRU:
		c.sets[set][i].order = c.clock
	case FIFO:
		// Insertion order only; nothing on hit.
	case PLRU:
		// Flip tree bits on the path to way i to point away from it.
		ways := c.cfg.Ways
		node := 0
		for span := ways; span > 1; span /= 2 {
			half := span / 2
			goRight := i%span >= half
			if goRight {
				c.plru[set] &^= 1 << uint(node) // 0 = next victim on the left
				node = 2*node + 2
			} else {
				c.plru[set] |= 1 << uint(node) // 1 = next victim on the right
				node = 2*node + 1
			}
		}
	}
}

// victim selects the way to evict in set (or an invalid way if present).
func (c *Cache) victim(set int) int {
	ws := c.sets[set]
	for i := range ws {
		if !ws[i].valid {
			return i
		}
	}
	switch c.cfg.Policy {
	case PLRU:
		ways := c.cfg.Ways
		node, lo, span := 0, 0, ways
		for span > 1 {
			half := span / 2
			if c.plru[set]&(1<<uint(node)) != 0 {
				lo += half
				node = 2*node + 2
			} else {
				node = 2*node + 1
			}
			span = half
		}
		return lo
	default: // LRU and FIFO both evict the smallest order stamp.
		v, min := 0, ws[0].order
		for i := 1; i < len(ws); i++ {
			if ws[i].order < min {
				v, min = i, ws[i].order
			}
		}
		return v
	}
}
