package wcet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// overfullSet reports whether some set of cfg receives more distinct lines
// of p than it has ways, so that the program's own lines evict each other
// and the must-analysis has real conflicts to reason about.
func overfullSet(p *program.Program, cfg cachesim.Config) bool {
	perSet := make(map[int]int)
	g := cfg.Geometry()
	for _, addr := range p.Lines() {
		set := g.Set(g.Line(addr))
		perSet[set]++
		if perSet[set] > cfg.Ways {
			return true
		}
	}
	return false
}

// TestMustBoundsSoundConflicting extends the soundness contract (the
// guaranteed bounds dominate the concrete worst-branch simulation, cold and
// warm) to programs whose addresses really conflict: the address span is
// at least four times the L1, so lines alias in the same sets, on the
// single-level paper L1, on every way partition of a 4-way cache, and on an
// inclusive L1+L2 hierarchy. The test also pins that the generator does
// produce overfull sets; otherwise it would prove nothing beyond the
// fit-in-cache properties.
func TestMustBoundsSoundConflicting(t *testing.T) {
	const programs = 200
	// Longer straight-line runs and sequences than the defaults put enough
	// distinct lines in each program for the aliasing to matter.
	spec := func(span int) program.RandomSpec {
		return program.RandomSpec{MaxSeqLen: 6, MaxLines: 12, AddressSpan: span}
	}
	paper := PaperPlatform()
	assoc := assocPlatform(128, 4)
	hier := Platform{ClockHz: 20e6, Cache: cachesim.PaperConfig(), Hier: cachesim.Hierarchy{L2: cachesim.Config{
		Lines: 256, LineSize: 16, Ways: 2, Policy: cachesim.LRU, HitCycles: 10, MissCycles: 100,
	}}}

	check := func(t *testing.T, name string, p *program.Program, simPlat Platform, res *Result) {
		t.Helper()
		if res.WarmCycles > res.ColdCycles {
			t.Errorf("%s: warm bound %d exceeds cold bound %d", name, res.WarmCycles, res.ColdCycles)
		}
		simCold, simWarm := Simulate(p, simPlat)
		if simCold > res.ColdCycles || simWarm > res.WarmCycles {
			t.Errorf("%s: simulation cold=%d warm=%d exceeds bounds cold=%d warm=%d",
				name, simCold, simWarm, res.ColdCycles, res.WarmCycles)
		}
	}

	t.Run("paper-L1", func(t *testing.T) {
		conflicting := 0
		for seed := int64(0); seed < programs; seed++ {
			p := program.Random(rand.New(rand.NewSource(seed)), spec(4*paper.Cache.Lines))
			if overfullSet(p, paper.Cache) {
				conflicting++
			}
			res, err := Analyze(p, paper)
			if err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("seed %d", seed), p, paper, res)
		}
		if conflicting < programs/5 {
			t.Errorf("only %d of %d programs overfill a set", conflicting, programs)
		}
	})

	t.Run("partitioned", func(t *testing.T) {
		for ways := 1; ways <= assoc.Cache.Ways; ways++ {
			restricted, err := assoc.Restrict(ways)
			if err != nil {
				t.Fatal(err)
			}
			conflicting := 0
			for seed := int64(0); seed < programs; seed++ {
				p := program.Random(rand.New(rand.NewSource(seed)), spec(4*assoc.Cache.Lines))
				if overfullSet(p, restricted.Cache) {
					conflicting++
				}
				res, err := AnalyzePartitioned(p, assoc, ways)
				if err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("ways %d seed %d", ways, seed), p, restricted, res)
			}
			if conflicting == 0 {
				t.Errorf("%d ways: no program overfills a set", ways)
			}
		}
	})

	t.Run("inclusive-L2", func(t *testing.T) {
		conflictL1, conflictL2 := 0, 0
		for seed := int64(0); seed < programs; seed++ {
			p := program.Random(rand.New(rand.NewSource(seed)), spec(4*hier.Cache.Lines))
			if overfullSet(p, hier.Cache) {
				conflictL1++
			}
			if overfullSet(p, hier.Hier.L2) {
				conflictL2++
			}
			res, err := Analyze(p, hier)
			if err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("seed %d", seed), p, hier, res)
		}
		if conflictL1 < programs/5 || conflictL2 == 0 {
			t.Errorf("overfull sets: L1 in %d, L2 in %d of %d programs", conflictL1, conflictL2, programs)
		}
	})
}
