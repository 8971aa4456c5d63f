package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Lines * c.LineSize }

// ResetStats zeroes the statistics without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Snapshot returns the set of cached memory-line indices.
func (c *Cache) Snapshot() map[uint32]bool {
	out := make(map[uint32]bool)
	for set, ws := range c.sets {
		for _, w := range ws {
			if w.valid {
				out[w.tag*c.geom.NumSets+uint32(set)] = true
			}
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := []Config{
		{Lines: 0, LineSize: 16, Ways: 1, HitCycles: 1, MissCycles: 100},
		{Lines: 128, LineSize: 15, Ways: 1, HitCycles: 1, MissCycles: 100},
		{Lines: 128, LineSize: 16, Ways: 3, HitCycles: 1, MissCycles: 100},
		{Lines: 128, LineSize: 16, Ways: 1, HitCycles: 0, MissCycles: 100},
		{Lines: 128, LineSize: 16, Ways: 1, HitCycles: 10, MissCycles: 5},
		{Lines: 8, LineSize: 16, Ways: 8, Policy: PLRU, HitCycles: 1, MissCycles: 100}, // ok actually
	}
	for i, c := range bad[:5] {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	if err := bad[5].Validate(); err != nil {
		t.Errorf("PLRU power-of-two ways should validate: %v", err)
	}
	nonPow2 := Config{Lines: 12, LineSize: 16, Ways: 3, Policy: PLRU, HitCycles: 1, MissCycles: 100}
	if err := nonPow2.Validate(); err == nil {
		t.Error("PLRU with 3 ways should be invalid")
	}
}

func TestGeometry(t *testing.T) {
	cfg := PaperConfig()
	if cfg.Sets() != 128 || cfg.SizeBytes() != 2048 {
		t.Errorf("sets=%d size=%d", cfg.Sets(), cfg.SizeBytes())
	}
	if cfg.LineIndex(0x20) != 2 {
		t.Errorf("LineIndex(0x20) = %d", cfg.LineIndex(0x20))
	}
	// 2048-byte stride aliases to the same set in a direct-mapped cache.
	if cfg.SetIndex(0x100) != cfg.SetIndex(0x100+2048) {
		t.Error("2KB-apart addresses must alias")
	}
	if cfg.SetIndex(0x100) == cfg.SetIndex(0x110) {
		t.Error("adjacent lines must not alias")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(PaperConfig())
	hit, cyc := c.Access(0x1000)
	if hit || cyc != 100 {
		t.Errorf("first access: hit=%v cyc=%d", hit, cyc)
	}
	hit, cyc = c.Access(0x1004) // same line
	if !hit || cyc != 1 {
		t.Errorf("same-line access: hit=%v cyc=%d", hit, cyc)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Cycles != 101 {
		t.Errorf("stats: %+v", st)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := MustNew(PaperConfig())
	a := uint32(0x0)
	b := a + 2048 // same set, different tag
	c.Access(a)
	if hit, _ := c.Access(b); hit {
		t.Error("conflicting line should miss")
	}
	if hit, _ := c.Access(a); hit {
		t.Error("original line should have been evicted")
	}
}

func TestSetAssociativeAvoidsConflict(t *testing.T) {
	cfg := PaperConfig()
	cfg.Ways = 2
	c := MustNew(cfg)
	a := uint32(0x0)
	b := a + uint32(cfg.Sets()*cfg.LineSize) // same set in the 2-way cache
	c.Access(a)
	c.Access(b)
	if hit, _ := c.Access(a); !hit {
		t.Error("2-way cache should retain both conflicting lines")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{Lines: 4, LineSize: 16, Ways: 2, Policy: LRU, HitCycles: 1, MissCycles: 10}
	c := MustNew(cfg)
	stride := uint32(cfg.Sets() * cfg.LineSize) // same-set stride
	a, b, d := uint32(0), stride, 2*stride
	c.Access(a)
	c.Access(b)
	c.Access(a) // refresh a; b becomes LRU
	c.Access(d) // evicts b
	if hit, _ := c.Access(a); !hit {
		t.Error("a should still be cached (was MRU)")
	}
	if hit, _ := c.Access(b); hit {
		t.Error("b should have been evicted (was LRU)")
	}
}

func TestFIFOEviction(t *testing.T) {
	cfg := Config{Lines: 4, LineSize: 16, Ways: 2, Policy: FIFO, HitCycles: 1, MissCycles: 10}
	c := MustNew(cfg)
	stride := uint32(cfg.Sets() * cfg.LineSize)
	a, b, d := uint32(0), stride, 2*stride
	c.Access(a)
	c.Access(b)
	c.Access(a) // hit does NOT refresh under FIFO
	c.Access(d) // evicts a (oldest insertion)
	if hit, _ := c.Access(b); !hit {
		t.Error("b should still be cached under FIFO")
	}
	if hit, _ := c.Access(a); hit {
		t.Error("a should have been evicted under FIFO")
	}
}

func TestPLRUTwoWayMatchesLRU(t *testing.T) {
	// For 2 ways PLRU degenerates to true LRU: replay a random same-set
	// trace on both and compare hit sequences.
	cfgL := Config{Lines: 8, LineSize: 16, Ways: 2, Policy: LRU, HitCycles: 1, MissCycles: 10}
	cfgP := cfgL
	cfgP.Policy = PLRU
	cl, cp := MustNew(cfgL), MustNew(cfgP)
	r := rand.New(rand.NewSource(42))
	stride := uint32(cfgL.Sets() * cfgL.LineSize)
	for i := 0; i < 200; i++ {
		addr := uint32(r.Intn(4)) * stride
		h1, _ := cl.Access(addr)
		h2, _ := cp.Access(addr)
		if h1 != h2 {
			t.Fatalf("step %d: LRU hit=%v PLRU hit=%v", i, h1, h2)
		}
	}
}

func TestPLRUFourWay(t *testing.T) {
	cfg := Config{Lines: 4, LineSize: 16, Ways: 4, Policy: PLRU, HitCycles: 1, MissCycles: 10}
	c := MustNew(cfg)
	stride := uint32(cfg.Sets() * cfg.LineSize)
	// Fill all four ways; then access a fifth line and check that some
	// line was evicted but the most recently touched survives.
	for i := 0; i < 4; i++ {
		c.Access(uint32(i) * stride)
	}
	c.Access(3 * stride) // touch way holding line 3
	c.Access(4 * stride) // evict a pseudo-LRU victim
	if hit, _ := c.Access(3 * stride); !hit {
		t.Error("most recently used line must survive PLRU eviction")
	}
}

func TestFlushAndClone(t *testing.T) {
	c := MustNew(PaperConfig())
	c.Access(0x40)
	cl := c.Clone()
	if !cl.Contains(0x40) {
		t.Error("clone must carry contents")
	}
	cl.Access(0x80)
	if c.Contains(0x80) {
		t.Error("clone must not alias original")
	}
	c.Flush()
	if c.Contains(0x40) {
		t.Error("flush must clear contents")
	}
	if c.Stats().Accesses != 1 {
		t.Error("flush must preserve stats")
	}
}

func TestContainsDoesNotTouch(t *testing.T) {
	cfg := Config{Lines: 2, LineSize: 16, Ways: 2, Policy: LRU, HitCycles: 1, MissCycles: 10}
	c := MustNew(cfg)
	stride := uint32(cfg.Sets() * cfg.LineSize)
	c.Access(0)
	c.Access(stride)
	// Contains(0) must not refresh line 0's recency.
	c.Contains(0)
	c.Access(2 * stride) // evicts LRU, which must still be line 0
	if c.Contains(0) {
		t.Error("Contains must not update LRU state")
	}
}

func TestAccessRun(t *testing.T) {
	c := MustNew(PaperConfig())
	hit, cyc := c.AccessRun(0x100, 5)
	if hit || cyc != 100+4 {
		t.Errorf("cold run: hit=%v cyc=%d, want false 104", hit, cyc)
	}
	hit, cyc = c.AccessRun(0x100, 5)
	if !hit || cyc != 5 {
		t.Errorf("warm run: hit=%v cyc=%d, want true 5", hit, cyc)
	}
	if c.Stats().Accesses != 10 {
		t.Errorf("accesses = %d, want 10", c.Stats().Accesses)
	}
	if _, cyc := c.AccessRun(0x200, 0); cyc != 0 {
		t.Error("zero-fetch run must be free")
	}
}

func TestSnapshot(t *testing.T) {
	c := MustNew(PaperConfig())
	c.Access(0x0)
	c.Access(0x10)
	snap := c.Snapshot()
	if len(snap) != 2 || !snap[0] || !snap[1] {
		t.Errorf("snapshot: %v", snap)
	}
}

func TestStatsAddAndHitRate(t *testing.T) {
	var s Stats
	s.Add(Stats{Accesses: 10, Hits: 7, Misses: 3, Cycles: 307})
	s.Add(Stats{Accesses: 10, Hits: 3, Misses: 7, Cycles: 703})
	if s.Accesses != 20 || s.Hits != 10 || s.Cycles != 1010 {
		t.Errorf("merged stats: %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %g", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate must be 0")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || PLRU.String() != "PLRU" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy must render")
	}
}

// Property: cycle accounting is exact: cycles = hits*HitCycles + misses*MissCycles.
func TestQuickCycleAccounting(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Lines: 16, LineSize: 16, Ways: 1 << r.Intn(3), Policy: Policy(r.Intn(3)), HitCycles: 1, MissCycles: 10}
		if cfg.Validate() != nil {
			return true
		}
		c := MustNew(cfg)
		for i := 0; i < 300; i++ {
			c.Access(uint32(r.Intn(64)) * 16)
		}
		s := c.Stats()
		return s.Cycles == int64(s.Hits*cfg.HitCycles+s.Misses*cfg.MissCycles) &&
			s.Accesses == s.Hits+s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than one set's ways never misses after
// the first pass, regardless of policy.
func TestQuickSmallWorkingSetAlwaysHits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Lines: 32, LineSize: 16, Ways: 4, Policy: Policy(r.Intn(3)), HitCycles: 1, MissCycles: 10}
		c := MustNew(cfg)
		// 4 lines all mapping to different sets: trivially retained.
		addrs := []uint32{0x00, 0x10, 0x20, 0x30}
		for _, a := range addrs {
			c.Access(a)
		}
		c.ResetStats()
		for i := 0; i < 100; i++ {
			c.Access(addrs[r.Intn(len(addrs))])
		}
		return c.Stats().Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
