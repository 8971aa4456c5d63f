package cachesim

import (
	"math/rand"
	"testing"
)

// ContainsL1 reports whether addr's line currently sits in the first level.
func (c *HierCache) ContainsL1(addr uint32) bool { return c.l1.Contains(addr) }

// ContainsL2 reports whether addr's line currently sits in the second level.
func (c *HierCache) ContainsL2(addr uint32) bool { return c.l2.Contains(addr) }

func testL1() Config {
	return Config{Lines: 8, LineSize: 16, Ways: 2, Policy: LRU, HitCycles: 1, MissCycles: 100}
}

func testL2() Config {
	return Config{Lines: 32, LineSize: 16, Ways: 4, Policy: LRU, HitCycles: 10, MissCycles: 100}
}

func TestHierarchyValidate(t *testing.T) {
	l1 := testL1()
	if err := (Hierarchy{}).Validate(l1); err != nil {
		t.Errorf("disabled hierarchy rejected: %v", err)
	}
	if err := (Hierarchy{L2: testL2()}).Validate(l1); err != nil {
		t.Errorf("valid hierarchy rejected: %v", err)
	}
	bad := map[string]Hierarchy{
		"line size":     {L2: Config{Lines: 32, LineSize: 32, Ways: 4, HitCycles: 10, MissCycles: 100}},
		"hit too cheap": {L2: Config{Lines: 32, LineSize: 16, Ways: 4, HitCycles: 1, MissCycles: 100}},
		"hit above mem": {L2: Config{Lines: 32, LineSize: 16, Ways: 4, HitCycles: 101, MissCycles: 101}},
		"memory cost":   {L2: Config{Lines: 32, LineSize: 16, Ways: 4, HitCycles: 10, MissCycles: 200}},
		"bad geometry":  {L2: Config{Lines: 30, LineSize: 16, Ways: 4, HitCycles: 10, MissCycles: 100}},
	}
	// "hit too cheap" must be cheaper than the L1 hit to trip the bound.
	h := bad["hit too cheap"]
	h.L2.HitCycles = 0
	bad["hit too cheap"] = h
	for name, h := range bad {
		if err := h.Validate(l1); err == nil {
			t.Errorf("%s hierarchy accepted", name)
		}
	}
	if _, err := NewHier(l1, Hierarchy{}); err == nil {
		t.Error("NewHier accepted a disabled hierarchy")
	}
}

func TestHierInclusiveBasics(t *testing.T) {
	c := MustNewHier(testL1(), Hierarchy{L2: testL2()})
	if lvl, cyc := c.Access(0); lvl != 3 || cyc != 100 {
		t.Fatalf("cold access: level %d, %d cycles", lvl, cyc)
	}
	if !c.ContainsL1(0) || !c.ContainsL2(0) {
		t.Fatal("inclusive fill must land in both levels")
	}
	if lvl, cyc := c.Access(0); lvl != 1 || cyc != 1 {
		t.Fatalf("L1 hit: level %d, %d cycles", lvl, cyc)
	}
	// Two more lines mapping to set 0 of the 2-way L1 (4 sets, 16B lines:
	// stride 64) evict line 0 from the L1; the L2 (8 sets) still holds it.
	c.Access(64)
	c.Access(128)
	if c.ContainsL1(0) {
		t.Fatal("line 0 should have been evicted from the 2-way L1")
	}
	if !c.ContainsL2(0) {
		t.Fatal("mostly-inclusive L2 must retain the L1-evicted line")
	}
	if lvl, cyc := c.Access(0); lvl != 2 || cyc != 10 {
		t.Fatalf("L2 hit: level %d, %d cycles", lvl, cyc)
	}
	st := c.Stats()
	if st.Accesses != 5 || st.Misses != 3 || st.Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHierExclusiveVictimMovement(t *testing.T) {
	c := MustNewHier(testL1(), Hierarchy{L2: testL2(), Exclusive: true})
	c.Access(0)
	if c.ContainsL2(0) {
		t.Fatal("exclusive memory fill must not land in the L2")
	}
	// Evict line 0 from L1 set 0: it must demote into the L2.
	c.Access(64)
	c.Access(128)
	if c.ContainsL1(0) {
		t.Fatal("line 0 should have been evicted from the 2-way L1")
	}
	if !c.ContainsL2(0) {
		t.Fatal("exclusive L1 victim must demote into the L2")
	}
	// Touching it again promotes it back and removes the L2 copy.
	if lvl, cyc := c.Access(0); lvl != 2 || cyc != 10 {
		t.Fatalf("L2 hit: level %d, %d cycles", lvl, cyc)
	}
	if !c.ContainsL1(0) || c.ContainsL2(0) {
		t.Fatal("exclusive promotion must move the line, not copy it")
	}
}

// TestHierDegeneratesToSingleLevel: with the L2 hit costing exactly the
// memory latency, the hierarchy's cycle accounting is indistinguishable
// from the single-level cache, access for access, on random streams — the
// simulator half of the degenerate-L2 equivalence the WCET layer pins.
func TestHierDegeneratesToSingleLevel(t *testing.T) {
	l1 := testL1()
	l2 := testL2()
	l2.HitCycles = l1.MissCycles
	for _, excl := range []bool{false, true} {
		single := MustNew(l1)
		hier := MustNewHier(l1, Hierarchy{L2: l2, Exclusive: excl})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			addr := uint32(rng.Intn(64)) * 16
			_, want := single.Access(addr)
			_, got := hier.Access(addr)
			if got != want {
				t.Fatalf("exclusive=%v access %d (addr %#x): hier %d cycles, single %d", excl, i, addr, got, want)
			}
		}
	}
}

// TestHierExclusiveDisjoint: the victim-cache arrangement never holds a
// line in both levels.
func TestHierExclusiveDisjoint(t *testing.T) {
	c := MustNewHier(testL1(), Hierarchy{L2: testL2(), Exclusive: true})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		addr := uint32(rng.Intn(96)) * 16
		c.Access(addr)
		if c.ContainsL1(addr) && c.ContainsL2(addr) {
			t.Fatalf("access %d: line %#x in both levels of an exclusive hierarchy", i, addr)
		}
	}
}

func TestHierCloneIsDeep(t *testing.T) {
	c := MustNewHier(testL1(), Hierarchy{L2: testL2()})
	c.Access(0)
	cl := c.Clone()
	cl.Access(64)
	cl.Access(128)
	if !c.ContainsL1(0) {
		t.Fatal("mutating the clone leaked into the original")
	}
	if cl.Stats().Accesses != 3 || c.Stats().Accesses != 1 {
		t.Fatalf("stats: clone %+v, original %+v", cl.Stats(), c.Stats())
	}
}

func TestHierAccessRun(t *testing.T) {
	c := MustNewHier(testL1(), Hierarchy{L2: testL2()})
	if cyc := c.AccessRun(0, 4); cyc != 100+3*1 {
		t.Fatalf("cold run of 4 fetches: %d cycles", cyc)
	}
	if cyc := c.AccessRun(0, 4); cyc != 4*1 {
		t.Fatalf("warm run of 4 fetches: %d cycles", cyc)
	}
	if cyc := c.AccessRun(0, 0); cyc != 0 {
		t.Fatalf("empty run: %d cycles", cyc)
	}
}
