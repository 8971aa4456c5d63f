package wcet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

func assocPlatform(lines, ways int) Platform {
	return Platform{ClockHz: 20e6, Cache: cachesim.Config{
		Lines: lines, LineSize: 16, Ways: ways, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
	}}
}

// AnalyzePartitioned with every way of the cache is exactly Analyze: the
// "partition" owning the whole cache is the shared cache.
func TestAnalyzePartitionedFullWaysEqualsAnalyze(t *testing.T) {
	plat := assocPlatform(128, 4)
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := program.Random(r, program.RandomSpec{})
		full, err := AnalyzePartitioned(p, plat, plat.Cache.Ways)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Analyze(p, plat)
		if err != nil {
			t.Fatal(err)
		}
		if bounds(full) != bounds(shared) {
			t.Errorf("seed %d: full-ways partition %+v != shared %+v", seed, full, shared)
		}
	}
}

// The partitioned analysis is sound on its own restricted geometry (the
// bounds dominate the concrete worst-branch simulation), and warm <= cold.
func TestAnalyzePartitionedSound(t *testing.T) {
	plat := assocPlatform(128, 4)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := program.Random(r, program.RandomSpec{})
		for ways := 1; ways <= plat.Cache.Ways; ways++ {
			res, err := AnalyzePartitioned(p, plat, ways)
			if err != nil {
				t.Fatal(err)
			}
			if res.ColdCycles <= 0 || res.WarmCycles <= 0 || res.WarmCycles > res.ColdCycles {
				t.Errorf("seed %d ways %d: bounds cold=%d warm=%d", seed, ways, res.ColdCycles, res.WarmCycles)
			}
			restricted, err := plat.Restrict(ways)
			if err != nil {
				t.Fatal(err)
			}
			if simCold, simWarm := Simulate(p, restricted); simCold > res.ColdCycles || simWarm > res.WarmCycles {
				t.Errorf("seed %d ways %d: simulation cold=%d warm=%d exceeds bounds: %+v", seed, ways, simCold, simWarm, res)
			}
		}
	}
}

// The restricted view keeps the set count (and hence the address mapping)
// and errors out of range.
func TestPlatformRestrict(t *testing.T) {
	plat := assocPlatform(128, 4)
	r, err := plat.Restrict(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClockHz != plat.ClockHz || r.Cache.Sets() != plat.Cache.Sets() || r.Cache.Ways != 2 {
		t.Errorf("restricted platform = %+v", r)
	}
	for _, bad := range []int{0, 5} {
		if _, err := plat.Restrict(bad); err == nil {
			t.Errorf("Restrict(%d) accepted", bad)
		}
	}
}

// Steady-state partition timing never has math.Inf or negative values, and
// owning more ways never hurts on branch-free programs (monotone warm
// bound; with branches must-join path effects can go either way, mirroring
// TestQuickAssociativityHelpsReuse).
func TestPartitionedWarmMonotoneBranchFree(t *testing.T) {
	plat := assocPlatform(128, 8)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var build func(depth int) program.Node
		build = func(depth int) program.Node {
			if depth == 0 || r.Intn(2) == 0 {
				return program.ContiguousLines(uint32(r.Intn(64))*16, 1+r.Intn(8), 4, 16)
			}
			return program.Loop{Body: build(depth - 1), Count: 1 + r.Intn(4)}
		}
		p := &program.Program{Name: "bf", Root: program.Seq{build(2), build(2)}}
		prev := int64(math.MaxInt64)
		for ways := 1; ways <= plat.Cache.Ways; ways++ {
			res, err := AnalyzePartitioned(p, plat, ways)
			if err != nil {
				t.Fatal(err)
			}
			if res.WarmCycles > prev {
				t.Errorf("seed %d: warm bound rose from %d to %d at %d ways", seed, prev, res.WarmCycles, ways)
			}
			prev = res.WarmCycles
		}
	}
}
