package wcet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// Property: on arbitrary structured programs and cache geometries, the
// guaranteed (must-analysis) bounds dominate concrete worst-branch
// simulation, the warm bound never exceeds the cold bound, and all costs
// are positive. This is the soundness contract of the WCET engine.
func TestQuickMustBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := cachesim.Config{
			Lines:      8 << r.Intn(3), // 8, 16, 32
			LineSize:   16,
			Ways:       1 << r.Intn(2), // 1, 2
			Policy:     cachesim.LRU,
			HitCycles:  1,
			MissCycles: 10 + r.Intn(90),
		}
		p := program.Random(r, program.RandomSpec{AddressSpan: cfg.Lines * 2})
		plat := Platform{ClockHz: 20e6, Cache: cfg}
		res, err := Analyze(p, plat)
		if err != nil {
			return false
		}
		simCold, simWarm := Simulate(p, plat)
		return res.ColdCycles > 0 &&
			res.WarmCycles > 0 &&
			res.WarmCycles <= res.ColdCycles &&
			simCold <= res.ColdCycles &&
			simWarm <= res.WarmCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the cold bound is monotone in the miss penalty.
func TestQuickColdMonotoneInMissCost(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := program.Random(r, program.RandomSpec{})
		mkPlat := func(miss int) Platform {
			return Platform{ClockHz: 20e6, Cache: cachesim.Config{
				Lines: 16, LineSize: 16, Ways: 1, HitCycles: 1, MissCycles: miss,
			}}
		}
		lo, err := Analyze(p, mkPlat(10))
		if err != nil {
			return false
		}
		hi, err := Analyze(p, mkPlat(100))
		if err != nil {
			return false
		}
		return hi.ColdCycles >= lo.ColdCycles && hi.WarmCycles >= lo.WarmCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: increasing associativity (same total lines, LRU) never reduces
// the number of guaranteed-reused lines on branch-free programs.
// (With branches, path-sensitive effects can go either way; straight-line
// plus loops is the monotone case.)
func TestQuickAssociativityHelpsReuse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Branch-free random program: straight sections and loops only.
		var build func(depth int) program.Node
		build = func(depth int) program.Node {
			if depth == 0 || r.Intn(2) == 0 {
				return program.ContiguousLines(uint32(r.Intn(32))*16, 1+r.Intn(5), 4, 16)
			}
			return program.Loop{Body: build(depth - 1), Count: 1 + r.Intn(4)}
		}
		p := &program.Program{Name: "bf", Root: program.Seq{build(2), build(2)}}
		direct := Platform{ClockHz: 20e6, Cache: cachesim.Config{
			Lines: 16, LineSize: 16, Ways: 1, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
		}}
		assoc := direct
		assoc.Cache.Ways = 4
		rd, err := Analyze(p, direct)
		if err != nil {
			return false
		}
		ra, err := Analyze(p, assoc)
		if err != nil {
			return false
		}
		return ra.ReductionCycles >= rd.ReductionCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: simulation is deterministic — two runs of the same program on
// fresh caches agree cycle for cycle.
func TestQuickSimulationDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := program.Random(r, program.RandomSpec{})
		cfg := cachesim.PaperConfig()
		a := SimulateRuns(p, cfg, 3)
		b := SimulateRuns(p, cfg, 3)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the third and later back-to-back runs cost no more than the
// second (the steady state is reached after one warm-up run for LRU
// direct-mapped caches on every program the generator produces).
func TestQuickSteadyStateAfterOneRun(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := program.Random(r, program.RandomSpec{})
		runs := SimulateRuns(p, cachesim.PaperConfig(), 4)
		return runs[2] <= runs[1] && runs[3] <= runs[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
