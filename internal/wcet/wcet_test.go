package wcet

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// TaskWCETsSeconds returns the per-task WCET sequence for a burst of m
// consecutive tasks (Eq. 5): [Ewc(1), Ewc(2), ..., Ewc(m)] in seconds,
// where every task after the first benefits from the guaranteed reduction.
func (r *Result) TaskWCETsSeconds(plat Platform, m int) []float64 {
	if m <= 0 {
		return nil
	}
	out := make([]float64, m)
	out[0] = plat.CyclesToSeconds(r.ColdCycles)
	for j := 1; j < m; j++ {
		out[j] = plat.CyclesToSeconds(r.WarmCycles)
	}
	return out
}

func smallPlatform() Platform {
	return Platform{
		ClockHz: 20e6,
		Cache:   cachesim.Config{Lines: 8, LineSize: 16, Ways: 1, HitCycles: 1, MissCycles: 100},
	}
}

func straightLine(n int) *program.Program {
	return &program.Program{Name: "straight", Root: program.ContiguousLines(0, n, 4, 16)}
}

func TestStraightLineCold(t *testing.T) {
	// 4 lines, 4 fetches each, all distinct sets: cold = 4 misses + 12 hits.
	p := straightLine(4)
	res, err := Analyze(p, smallPlatform())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4*100 + 4*3*1)
	if res.ColdCycles != want {
		t.Errorf("cold = %d, want %d", res.ColdCycles, want)
	}
	if simCold, _ := Simulate(p, smallPlatform()); simCold != want {
		t.Errorf("sim cold = %d, want %d", simCold, want)
	}
	// Everything fits: warm run is all hits.
	if res.WarmCycles != int64(4*4) {
		t.Errorf("warm = %d, want 16", res.WarmCycles)
	}
	if res.ReusedLines != 4 {
		t.Errorf("reused lines = %d, want 4", res.ReusedLines)
	}
}

func TestLoopFirstIterationMisses(t *testing.T) {
	// Loop of 2 lines, 5 iterations: cold = 2 misses + (2*5-2) line-hits,
	// with 4 fetches per line.
	p := &program.Program{Name: "loop", Root: program.Loop{
		Body:  program.ContiguousLines(0, 2, 4, 16),
		Count: 5,
	}}
	res, err := Analyze(p, smallPlatform())
	if err != nil {
		t.Fatal(err)
	}
	// First iteration: 2 * (100 + 3). Remaining 4 iterations: 2*4 hits each.
	want := int64(2*103 + 4*8)
	if res.ColdCycles != want {
		t.Errorf("cold = %d, want %d", res.ColdCycles, want)
	}
	if simCold, _ := Simulate(p, smallPlatform()); simCold != want {
		t.Errorf("sim cold = %d, want %d", simCold, want)
	}
	// Warm: loop body still cached from previous run.
	if res.WarmCycles != int64(5*8) {
		t.Errorf("warm = %d, want 40", res.WarmCycles)
	}
}

func TestConflictingLinesNeverReused(t *testing.T) {
	// Two lines 8 sets apart (same set, direct-mapped small cache): they
	// evict each other every run; no guaranteed reduction.
	stride := uint32(8 * 16)
	p := &program.Program{Name: "conflict", Root: program.Seq{
		program.Line{Addr: 0, Fetches: 4},
		program.Line{Addr: stride, Fetches: 4},
	}}
	res, err := Analyze(p, smallPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if res.ReductionCycles != 0 {
		t.Errorf("conflicting pair must have zero guaranteed reduction, got %d", res.ReductionCycles)
	}
	if simCold, simWarm := Simulate(p, smallPlatform()); simWarm != simCold {
		t.Errorf("simulation should also show no reuse: cold=%d warm=%d", simCold, simWarm)
	}
}

func TestBranchTakesWorstArm(t *testing.T) {
	// Then-arm: 1 line; Else-arm: 2 lines. Cold analysis must charge the
	// else-arm (2 misses) as worst case.
	p := &program.Program{Name: "branch", Root: program.Branch{
		Then: program.Line{Addr: 0x00, Fetches: 4},
		Else: program.ContiguousLines(0x10, 2, 4, 16),
	}}
	res, err := Analyze(p, smallPlatform())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * 103)
	if res.ColdCycles != want {
		t.Errorf("cold = %d, want %d", res.ColdCycles, want)
	}
	if simCold, _ := Simulate(p, smallPlatform()); simCold != want {
		t.Errorf("sim = %d, want %d", simCold, want)
	}
}

func TestBranchJoinIsIntersection(t *testing.T) {
	// After the branch, neither arm's lines are guaranteed cached, but the
	// common prefix line is. The second run must charge misses for both
	// arm lines again (not guaranteed), but hit the prefix.
	p := &program.Program{Name: "join", Root: program.Seq{
		program.Line{Addr: 0x00, Fetches: 4}, // common: guaranteed
		program.Branch{
			Then: program.Line{Addr: 0x10, Fetches: 4},
			Else: program.Line{Addr: 0x20, Fetches: 4},
		},
	}}
	res, err := Analyze(p, smallPlatform())
	if err != nil {
		t.Fatal(err)
	}
	// Warm guaranteed: prefix hit (4) + worst arm still a miss (103).
	if res.WarmCycles != 4+103 {
		t.Errorf("warm = %d, want 107", res.WarmCycles)
	}
	// Reduction: only the prefix line is guaranteed reusable.
	if res.ReductionCycles != 99 {
		t.Errorf("reduction = %d, want 99", res.ReductionCycles)
	}
}

func TestMustBoundDominatesSimulation(t *testing.T) {
	// On arbitrary structured programs the guaranteed bound must dominate
	// the concrete simulation, cold and warm.
	progs := []*program.Program{
		straightLine(12), // larger than the 8-line cache: wraps around
		{Name: "mix", Root: program.Seq{
			program.ContiguousLines(0, 6, 4, 16),
			program.Loop{Body: program.Seq{
				program.Line{Addr: 0x60, Fetches: 8},
				program.Branch{
					Then: program.Line{Addr: 0x70, Fetches: 4},
					Else: program.Line{Addr: 0x80, Fetches: 6},
				},
			}, Count: 7},
			program.ContiguousLines(0x90, 3, 2, 16),
		}},
	}
	for _, p := range progs {
		res, err := Analyze(p, smallPlatform())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		simCold, simWarm := Simulate(p, smallPlatform())
		if simCold > res.ColdCycles {
			t.Errorf("%s: sim cold %d exceeds bound %d", p.Name, simCold, res.ColdCycles)
		}
		if simWarm > res.WarmCycles {
			t.Errorf("%s: sim warm %d exceeds bound %d", p.Name, simWarm, res.WarmCycles)
		}
		if res.WarmCycles > res.ColdCycles {
			t.Errorf("%s: warm bound %d exceeds cold bound %d", p.Name, res.WarmCycles, res.ColdCycles)
		}
	}
}

func TestTaskWCETsSeconds(t *testing.T) {
	res := &Result{ColdCycles: 2000, WarmCycles: 500}
	plat := Platform{ClockHz: 20e6}
	ws := res.TaskWCETsSeconds(plat, 3)
	if len(ws) != 3 {
		t.Fatalf("len = %d", len(ws))
	}
	if ws[0] != 1e-4 || ws[1] != 2.5e-5 || ws[2] != 2.5e-5 {
		t.Errorf("wcets = %v", ws)
	}
	if res.TaskWCETsSeconds(plat, 0) != nil {
		t.Error("m=0 should be nil")
	}
}

func TestCyclesConversion(t *testing.T) {
	plat := PaperPlatform()
	if got := plat.CyclesToMicros(18151); got < 907.55-1e-9 || got > 907.55+1e-9 {
		t.Errorf("18151 cycles = %g us, want 907.55", got)
	}
	if plat.CyclesToSeconds(20) != 1e-6 {
		t.Errorf("20 cycles = %g s", plat.CyclesToSeconds(20))
	}
}

func TestSimulateRunsSteadyState(t *testing.T) {
	p := straightLine(4)
	runs := SimulateRuns(p, smallPlatform().Cache, 4)
	if runs[1] != runs[2] || runs[2] != runs[3] {
		t.Errorf("warm runs should be steady: %v", runs)
	}
	if runs[0] <= runs[1] {
		t.Errorf("cold run should cost more: %v", runs)
	}
}

func TestSimulateOnSharedCache(t *testing.T) {
	cfg := smallPlatform().Cache
	c := cachesim.MustNew(cfg)
	p1 := straightLine(8)                                                             // fills the whole cache
	p2 := &program.Program{Name: "p2", Root: program.ContiguousLines(0x80, 8, 4, 16)} // aliases p1 completely
	SimulateOn(p1, c)
	SimulateOn(p2, c) // evicts p1
	cold := SimulateOn(p1, cachesim.MustNew(cfg))
	again := SimulateOn(p1, c)
	if again != cold {
		t.Errorf("p1 after p2 should be fully cold: %d vs %d", again, cold)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	p := &program.Program{Name: "bad", Root: program.Line{Addr: 3, Fetches: 1}}
	if _, err := Analyze(p, smallPlatform()); err == nil {
		t.Error("unaligned program must be rejected")
	}
	bad := smallPlatform()
	bad.Cache.Lines = -1
	if _, err := Analyze(straightLine(2), bad); err == nil {
		t.Error("invalid cache config must be rejected")
	}
}

func TestSetAssociativeMustAnalysis(t *testing.T) {
	// 2-way cache: two conflicting lines CAN both be guaranteed.
	plat := Platform{ClockHz: 20e6, Cache: cachesim.Config{
		Lines: 8, LineSize: 16, Ways: 2, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
	}}
	stride := uint32(plat.Cache.Sets() * plat.Cache.LineSize)
	p := &program.Program{Name: "assoc", Root: program.Seq{
		program.Line{Addr: 0, Fetches: 4},
		program.Line{Addr: stride, Fetches: 4},
	}}
	res, err := Analyze(p, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedLines != 2 {
		t.Errorf("2-way cache should guarantee both lines reused, got %d", res.ReusedLines)
	}
	// Third line in the same set exceeds associativity: with LRU age
	// bounds only the two most recent survive.
	p3 := &program.Program{Name: "assoc3", Root: program.Seq{
		program.Line{Addr: 0, Fetches: 4},
		program.Line{Addr: stride, Fetches: 4},
		program.Line{Addr: 2 * stride, Fetches: 4},
	}}
	res3, err := Analyze(p3, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res3.ReusedLines != 0 {
		t.Errorf("3 lines in a 2-way set must not be guaranteed, got %d reused", res3.ReusedLines)
	}
}
