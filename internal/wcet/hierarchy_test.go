package wcet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// hierL1 and hierL2 give a small two-level platform with real L2 reuse: an
// 8-line direct-mapped L1 backed by a 32-line 4-way L2.
func hierL1() cachesim.Config {
	return cachesim.Config{Lines: 8, LineSize: 16, Ways: 1, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100}
}

func hierL2() cachesim.Config {
	return cachesim.Config{Lines: 32, LineSize: 16, Ways: 4, Policy: cachesim.LRU, HitCycles: 10, MissCycles: 100}
}

// TestAnalyzeRejectsNonLRU is the regression for the silent-unsoundness
// fix: the must-analysis models LRU ages only, so set-associative FIFO and
// PLRU configurations must be rejected, not silently analyzed as LRU.
func TestAnalyzeRejectsNonLRU(t *testing.T) {
	p := straightLine(4)
	for _, pol := range []cachesim.Policy{cachesim.FIFO, cachesim.PLRU} {
		plat := Platform{ClockHz: 20e6, Cache: cachesim.Config{
			Lines: 16, LineSize: 16, Ways: 2, Policy: pol, HitCycles: 1, MissCycles: 100,
		}}
		if _, err := Analyze(p, plat); err == nil {
			t.Errorf("Analyze accepted a 2-way %v cache", pol)
		}
		if _, err := AnalyzePartitioned(p, plat, 1); err == nil {
			t.Errorf("AnalyzePartitioned accepted a 2-way %v cache", pol)
		}
	}
	// Set-associative non-LRU L2s are rejected too.
	l2 := hierL2()
	l2.Policy = cachesim.FIFO
	plat := Platform{ClockHz: 20e6, Cache: hierL1(), Hier: cachesim.Hierarchy{L2: l2}}
	if _, err := Analyze(p, plat); err == nil {
		t.Error("Analyze accepted a 4-way FIFO L2")
	}
	// Direct-mapped caches are policy-free: FIFO tagging is harmless there.
	dm := Platform{ClockHz: 20e6, Cache: cachesim.Config{
		Lines: 16, LineSize: 16, Ways: 1, Policy: cachesim.FIFO, HitCycles: 1, MissCycles: 100,
	}}
	if _, err := Analyze(p, dm); err != nil {
		t.Errorf("Analyze rejected a direct-mapped FIFO cache: %v", err)
	}
}

func TestAnalyzePartitionedRejectsHierarchy(t *testing.T) {
	plat := Platform{ClockHz: 20e6, Cache: hierL1(), Hier: cachesim.Hierarchy{L2: hierL2()}}
	if _, err := AnalyzePartitioned(straightLine(2), plat, 1); err == nil {
		t.Error("AnalyzePartitioned accepted a platform with an enabled hierarchy")
	}
}

// goldenSingleLevelPlatforms mirrors the engine's golden platform variants
// (paper direct-mapped, 2-way LRU, half-size) without importing the engine.
func goldenSingleLevelPlatforms() []Platform {
	paper := PaperPlatform()
	twoWay := paper
	twoWay.Cache.Ways = 2
	twoWay.Cache.Policy = cachesim.LRU
	half := paper
	half.Cache.Lines = paper.Cache.Lines / 2
	return []Platform{paper, twoWay, half}
}

// bounds returns the four scalar bounds of r; its per-way warm bounds exist
// on single-level platforms only.
func bounds(r *Result) [4]int64 {
	return [4]int64{r.ColdCycles, r.WarmCycles, r.ReductionCycles, int64(r.ReusedLines)}
}

// TestHierDegenerateL2MatchesSingleLevel is the differential pin: on every
// golden platform, an L2 whose hit costs exactly the memory latency (so the
// second level can never save a cycle) must leave the hierarchy analysis
// bit-identical to the single-level path — bounds and simulations alike —
// in both inclusive and exclusive arrangements. A disabled hierarchy is
// checked to take the single-level path unchanged.
func TestHierDegenerateL2MatchesSingleLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for pi, plat := range goldenSingleLevelPlatforms() {
		progs := []*program.Program{straightLine(6)}
		for i := 0; i < 12; i++ {
			progs = append(progs, program.Random(rng, program.RandomSpec{AddressSpan: plat.Cache.Lines * 2}))
		}
		for i, p := range progs {
			want, err := Analyze(p, plat)
			if err != nil {
				t.Fatal(err)
			}
			disabled := plat // zero Hier
			if got, err := Analyze(p, disabled); err != nil || bounds(got) != bounds(want) {
				t.Fatalf("platform %d program %d: disabled hierarchy diverged: %+v vs %+v (%v)", pi, i, got, want, err)
			}
			for _, excl := range []bool{false, true} {
				hp := plat
				hp.Hier = cachesim.Hierarchy{
					L2: cachesim.Config{
						Lines: plat.Cache.Lines * 4, LineSize: plat.Cache.LineSize, Ways: 4,
						Policy: cachesim.LRU, HitCycles: plat.Cache.MissCycles, MissCycles: plat.Cache.MissCycles,
					},
					Exclusive: excl,
				}
				got, err := Analyze(p, hp)
				if err != nil {
					t.Fatal(err)
				}
				if bounds(got) != bounds(want) {
					t.Fatalf("platform %d program %d exclusive=%v: zero-cost L2 diverged:\n got %+v\nwant %+v",
						pi, i, excl, got, want)
				}
			}
		}
	}
}

// TestHierL2HitBounds pins the multi-level classification on a hand-built
// case: two lines conflicting in the direct-mapped L1 but co-resident in
// the 4-way L2. Every post-cold access is a guaranteed L1 miss (the may
// analysis proves the other line evicted it) that hits the L2.
func TestHierL2HitBounds(t *testing.T) {
	// addr 0 -> line 0, addr 128 -> line 8: both set 0 of the 8-set L1,
	// both set 0 of the 8-set L2 (which has 4 ways for them).
	p := &program.Program{Name: "pingpong", Root: program.Loop{
		Body:  program.Seq{program.Line{Addr: 0, Fetches: 1}, program.Line{Addr: 128, Fetches: 1}},
		Count: 10,
	}}
	plat := Platform{ClockHz: 20e6, Cache: hierL1(), Hier: cachesim.Hierarchy{L2: hierL2()}}
	res, err := Analyze(p, plat)
	if err != nil {
		t.Fatal(err)
	}
	simCold, simWarm := Simulate(p, plat)
	// Cold: 2 memory misses, then 18 guaranteed L2 hits.
	if want := int64(2*100 + 18*10); res.ColdCycles != want || simCold != want {
		t.Errorf("cold = %d (sim %d), want %d", res.ColdCycles, simCold, want)
	}
	// Warm: all 20 accesses are guaranteed L2 hits.
	if want := int64(20 * 10); res.WarmCycles != want || simWarm != want {
		t.Errorf("warm = %d (sim %d), want %d", res.WarmCycles, simWarm, want)
	}
}

// TestQuickHierBoundsSound extends the soundness contract to hierarchies:
// on random programs and both arrangements, the multi-level guaranteed
// bounds dominate the exact two-level simulation, and the single-level
// bounds dominate the hierarchy bounds (an L2 can only help).
func TestQuickHierBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l1 := cachesim.Config{
			Lines:      8 << r.Intn(3), // 8, 16, 32
			LineSize:   16,
			Ways:       1 << r.Intn(2), // 1, 2
			Policy:     cachesim.LRU,
			HitCycles:  1,
			MissCycles: 100,
		}
		l2 := cachesim.Config{
			Lines:      l1.Lines * (2 << r.Intn(2)), // 2x, 4x the L1
			LineSize:   16,
			Ways:       1 << r.Intn(3), // 1, 2, 4
			Policy:     cachesim.LRU,
			HitCycles:  2 + r.Intn(50),
			MissCycles: 100,
		}
		p := program.Random(r, program.RandomSpec{AddressSpan: l1.Lines * 2})
		single, err := Analyze(p, Platform{ClockHz: 20e6, Cache: l1})
		if err != nil {
			return false
		}
		for _, excl := range []bool{false, true} {
			plat := Platform{ClockHz: 20e6, Cache: l1, Hier: cachesim.Hierarchy{L2: l2, Exclusive: excl}}
			res, err := Analyze(p, plat)
			if err != nil {
				return false
			}
			simCold, simWarm := Simulate(p, plat)
			ok := res.ColdCycles > 0 &&
				res.WarmCycles > 0 &&
				res.WarmCycles <= res.ColdCycles &&
				simCold <= res.ColdCycles &&
				simWarm <= res.WarmCycles &&
				res.ColdCycles <= single.ColdCycles &&
				res.WarmCycles <= single.WarmCycles
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
