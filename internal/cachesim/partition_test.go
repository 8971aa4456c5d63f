package cachesim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The shared partitioned cache, the oracle of Config.Restrict: a concrete
// simulation of one cache whose ways are split between applications by
// way masks, which TestPartitionedIsolation proves equivalent to
// independent restricted caches access for access.

// WayMask selects a subset of the ways of every set; bit i selects way i.
type WayMask uint64

// Partition assigns disjoint way masks of one shared cache to applications:
// entry i is the way mask application i owns.
type Partition []WayMask

// ContiguousPartition builds the canonical partition giving application i
// counts[i] consecutive ways, allocated left to right. Counts must be
// positive and sum to at most cfg.Ways.
func ContiguousPartition(cfg Config, counts []int) (Partition, error) {
	p := make(Partition, len(counts))
	next := 0
	for i, w := range counts {
		if w < 1 {
			return nil, fmt.Errorf("cachesim: partition way count %d for app %d must be at least 1", w, i)
		}
		p[i] = ((WayMask(1) << w) - 1) << next
		next += w
	}
	if next > cfg.Ways {
		return nil, fmt.Errorf("cachesim: partition uses %d ways, cache has %d", next, cfg.Ways)
	}
	return p, nil
}

// Validate checks the partition against the cache configuration: every mask
// must be non-empty, lie within the cache's ways, and be pairwise disjoint.
func (p Partition) Validate(cfg Config) error {
	if len(p) == 0 {
		return fmt.Errorf("cachesim: empty partition")
	}
	all := WayMask(1)<<cfg.Ways - 1
	var used WayMask
	for i, m := range p {
		switch {
		case m == 0:
			return fmt.Errorf("cachesim: partition app %d owns no ways", i)
		case m&^all != 0:
			return fmt.Errorf("cachesim: partition app %d mask %#x exceeds %d ways", i, uint64(m), cfg.Ways)
		case m&used != 0:
			return fmt.Errorf("cachesim: partition app %d mask %#x overlaps an earlier app", i, uint64(m))
		}
		used |= m
	}
	return nil
}

// PartitionedCache simulates a shared set-associative cache whose ways are
// statically partitioned between applications: an access by application i
// may hit any of its own ways but fills and evicts only within its mask, so
// inter-application eviction is impossible by construction.
//
// Replacement within a mask is LRU or FIFO over the owned ways (PLRU's tree
// does not decompose over arbitrary way subsets and is rejected).
type PartitionedCache struct {
	cfg   Config
	part  Partition
	geom  Geometry
	sets  [][]way
	clock int64
	stats []Stats // per application
}

// NewPartitioned constructs an empty partitioned cache.
func NewPartitioned(cfg Config, part Partition) (*PartitionedCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == PLRU {
		return nil, fmt.Errorf("cachesim: PLRU does not support way partitioning (tree bits span the whole set); use LRU or FIFO")
	}
	if err := part.Validate(cfg); err != nil {
		return nil, err
	}
	c := &PartitionedCache{
		cfg:   cfg,
		part:  append(Partition(nil), part...),
		geom:  cfg.Geometry(),
		sets:  make([][]way, cfg.Sets()),
		stats: make([]Stats, len(part)),
	}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c, nil
}

// Stats returns the accumulated statistics of one application.
func (c *PartitionedCache) Stats(app int) Stats { return c.stats[app] }

// Access simulates one instruction fetch from addr by application app,
// updating contents, replacement state, and that application's statistics.
// It returns true on a hit and the cycle cost of the access.
func (c *PartitionedCache) Access(app int, addr uint32) (hit bool, cycles int) {
	mask := c.part[app]
	_, set, tag := c.geom.Locate(addr)
	c.clock++
	ws := c.sets[set]
	for i := range ws {
		if mask&(1<<i) == 0 {
			continue
		}
		if ws[i].valid && ws[i].tag == tag {
			if c.cfg.Policy == LRU {
				ws[i].order = c.clock
			}
			c.stats[app].Accesses++
			c.stats[app].Hits++
			c.stats[app].Cycles += int64(c.cfg.HitCycles)
			return true, c.cfg.HitCycles
		}
	}
	// Miss: fill into the victim way of the application's own mask.
	v := c.victim(set, mask)
	ws[v] = way{valid: true, tag: tag, order: c.clock}
	c.stats[app].Accesses++
	c.stats[app].Misses++
	c.stats[app].Cycles += int64(c.cfg.MissCycles)
	return false, c.cfg.MissCycles
}

// victim selects the way to evict within mask (an invalid owned way first,
// else the owned way with the smallest order stamp — LRU and FIFO alike).
func (c *PartitionedCache) victim(set int, mask WayMask) int {
	ws := c.sets[set]
	v, min := -1, int64(0)
	for i := range ws {
		if mask&(1<<i) == 0 {
			continue
		}
		if !ws[i].valid {
			return i
		}
		if v < 0 || ws[i].order < min {
			v, min = i, ws[i].order
		}
	}
	return v
}

func fourWay() Config {
	return Config{Lines: 64, LineSize: 16, Ways: 4, Policy: LRU, HitCycles: 1, MissCycles: 100}
}

func TestContiguousPartition(t *testing.T) {
	p, err := ContiguousPartition(fourWay(), []int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Partition{0b0011, 0b0100, 0b1000}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("mask %d = %#b, want %#b", i, p[i], want[i])
		}
	}
	if err := p.Validate(fourWay()); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}

	if _, err := ContiguousPartition(fourWay(), []int{2, 2, 1}); err == nil {
		t.Error("over-budget partition accepted")
	}
	if _, err := ContiguousPartition(fourWay(), []int{2, 0, 1}); err == nil {
		t.Error("zero-way app accepted")
	}
}

func TestPartitionValidateRejects(t *testing.T) {
	cfg := fourWay()
	for name, p := range map[string]Partition{
		"empty":       {},
		"no ways":     {0b0011, 0},
		"overlap":     {0b0011, 0b0110},
		"out of ways": {0b10000, 0b0001},
	} {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("%s partition accepted", name)
		}
	}
}

func TestRestrict(t *testing.T) {
	cfg := fourWay()
	r, err := cfg.Restrict(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sets() != cfg.Sets() {
		t.Errorf("restricted set count %d != %d", r.Sets(), cfg.Sets())
	}
	if r.Ways != 2 || r.Lines != cfg.Sets()*2 {
		t.Errorf("restricted geometry = %d ways x %d lines", r.Ways, r.Lines)
	}
	// The address mapping is unchanged: same set and tag for any address.
	g, rg := cfg.Geometry(), r.Geometry()
	for _, addr := range []uint32{0, 16, 4096, 123456} {
		l1, s1, t1 := g.Locate(addr)
		l2, s2, t2 := rg.Locate(addr)
		if l1 != l2 || s1 != s2 || t1 != t2 {
			t.Errorf("addr %#x: locate (%d,%d,%d) vs restricted (%d,%d,%d)", addr, l1, s1, t1, l2, s2, t2)
		}
	}
	for _, bad := range []int{0, -1, 5} {
		if _, err := cfg.Restrict(bad); err == nil {
			t.Errorf("Restrict(%d) accepted", bad)
		}
	}
}

func TestNewPartitionedRejectsPLRU(t *testing.T) {
	cfg := fourWay()
	cfg.Policy = PLRU
	p, _ := ContiguousPartition(fourWay(), []int{2, 2})
	_, err := NewPartitioned(cfg, p)
	if err == nil || !strings.Contains(err.Error(), "PLRU") {
		t.Errorf("PLRU partitioned cache: err = %v", err)
	}
}

// TestPartitionedIsolation: traffic of one application never changes
// another's hit/miss outcome — each app's stream through the shared
// partitioned cache behaves exactly like a private cache with the
// restricted geometry (same sets, its own way count). This is the
// equivalence the partition-aware WCET analysis relies on.
func TestPartitionedIsolation(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO} {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(seed))
			cfg := Config{
				Lines:      32 << r.Intn(3), // 32, 64, 128
				LineSize:   16,
				Ways:       4 << r.Intn(2), // 4, 8
				Policy:     policy,
				HitCycles:  1,
				MissCycles: 100,
			}
			nApps := 2 + r.Intn(2)
			counts := make([]int, nApps)
			budget := cfg.Ways
			for i := range counts {
				max := budget - (nApps - 1 - i)
				counts[i] = 1 + r.Intn(max)
				budget -= counts[i]
			}
			part, err := ContiguousPartition(cfg, counts)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := NewPartitioned(cfg, part)
			if err != nil {
				t.Fatal(err)
			}
			private := make([]*Cache, nApps)
			for i := range private {
				rcfg, err := cfg.Restrict(counts[i])
				if err != nil {
					t.Fatal(err)
				}
				private[i] = MustNew(rcfg)
			}
			// Random interleaving of per-app address streams over a span
			// wider than the cache, so conflicts are plentiful.
			span := uint32(cfg.Lines * cfg.LineSize * 3)
			for step := 0; step < 3000; step++ {
				app := r.Intn(nApps)
				addr := uint32(r.Intn(int(span))) &^ uint32(cfg.LineSize-1)
				hitShared, cycShared := shared.Access(app, addr)
				hitPriv, cycPriv := private[app].Access(addr)
				if hitShared != hitPriv || cycShared != cycPriv {
					t.Fatalf("policy %v seed %d step %d app %d addr %#x: shared (%v,%d) vs private (%v,%d)",
						policy, seed, step, app, addr, hitShared, cycShared, hitPriv, cycPriv)
				}
			}
			for i := range private {
				if shared.Stats(i) != private[i].Stats() {
					t.Fatalf("policy %v seed %d app %d stats: shared %+v vs private %+v",
						policy, seed, i, shared.Stats(i), private[i].Stats())
				}
			}
		}
	}
}
