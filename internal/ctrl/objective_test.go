package ctrl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
)

// objectiveFixture compiles a two-mode design problem on a second-order
// plant, mirroring the case-study geometry the search exercises.
func objectiveFixture(t testing.TB) (*SimPlan, []Mode, Constraints) {
	t.Helper()
	plant, modes, cons, sim := objectiveProblem(t)
	plan, err := CompileSimPlan(plant, modes, sim)
	if err != nil {
		t.Fatal(err)
	}
	return plan, modes, cons
}

// objectiveProblem is objectiveFixture's design problem before compilation.
func objectiveProblem(t testing.TB) (*lti.System, []Mode, Constraints, SimOptions) {
	t.Helper()
	plant := &lti.System{
		A: mat.NewFromRows([][]float64{{0, 1}, {-4, -1.2}}),
		B: mat.ColVec(0, 1),
		C: mat.RowVec(1, 0),
	}
	as := sched.AppSchedule{
		Name: "fx", M: 2,
		WCETs:   []float64{48e-6, 28e-6},
		Periods: []float64{48e-6, 28e-6 + 150e-6},
		Delays:  []float64{48e-6, 28e-6},
		Gap:     150e-6,
	}
	modes, err := ModesFromSchedule(plant, as)
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Ref: 0.2, UMax: 60, SettleDeadline: 5e-3}.withDefaults()
	return plant, modes, cons, SimOptions{Horizon: 2.5 * cons.SettleDeadline, InitialGap: as.Gap}
}

// designObjective is the allocating reference of the scalar cost PSO
// minimizes: settling time plus smooth penalties for instability, saturation
// violation, and not settling. It runs the compiled plan's streaming
// evaluation — no trajectory is materialized — and produces values
// bit-identical to the dense path (see
// TestDesignObjectiveStreamingMatchesDense). The search itself runs
// designEval, whose per-worker scratch computes the same value bit for bit.
func designObjective(plan *SimPlan, modes []Mode, g Gains, cons Constraints) float64 {
	stable, rho, err := StableMonodromy(modes, g)
	return monodromyScore(plan, g, cons, stable, rho, err, math.Inf(1))
}

// objective and sharedObjective are designEval's exact costs: no cutoff.
func (e *designEval) objective(x []float64) float64 { return e.cost(x, math.Inf(1)) }

func (e *designEval) sharedObjective(k []float64) float64 { return e.sharedCost(k, math.Inf(1)) }

// TestDesignEvalMatchesReference pins the per-worker scratch objective
// against the allocating reference path (gainsFromVector +
// designObjective) bit for bit, across random candidates including wild
// unstable ones.
func TestDesignEvalMatchesReference(t *testing.T) {
	plan, modes, cons := objectiveFixture(t)
	m, l := len(modes), 2
	eval := newDesignEval(plan, modes, cons)
	reference := func(x []float64) float64 {
		g, err := gainsFromVector(x, modes)
		if err != nil {
			return 1e6
		}
		return designObjective(plan, modes, g, cons)
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		x := make([]float64, m*l)
		scale := math.Pow(10, float64(r.Intn(5))-1) // 0.1 .. 1000
		for i := range x {
			x[i] = scale * r.NormFloat64()
		}
		want := reference(x)
		got := eval.objective(x)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: designEval %v (%x), reference %v (%x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestDesignEvalSharedObjectiveMatchesTiled pins the phase-1 shared-gain
// path against tiling by hand.
func TestDesignEvalSharedObjectiveMatchesTiled(t *testing.T) {
	plan, modes, cons := objectiveFixture(t)
	eval := newDesignEval(plan, modes, cons)
	check := newDesignEval(plan, modes, cons)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		k := []float64{r.NormFloat64(), r.NormFloat64()}
		tiled := append(append([]float64(nil), k...), k...)
		want := check.objective(tiled)
		got := eval.sharedObjective(k)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: shared %v, tiled %v", trial, got, want)
		}
	}
}

// TestDesignEvalInstancesAgree pins that independent instances (the
// per-worker copies the PSO pool creates) compute identical values, which
// is what makes parallel evaluation bit-identical to serial.
func TestDesignEvalInstancesAgree(t *testing.T) {
	plan, modes, cons := objectiveFixture(t)
	a := newDesignEval(plan, modes, cons)
	b := newDesignEval(plan, modes, cons)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = 5 * r.NormFloat64()
		}
		va, vb := a.objective(x), b.objective(x)
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Fatalf("trial %d: instance values differ: %v vs %v", trial, va, vb)
		}
	}
}

// TestModeClosedLoopIntoMatchesReference pins the in-place mode matrix
// against ModeClosedLoop.
func TestModeClosedLoopIntoMatchesReference(t *testing.T) {
	_, modes, _ := objectiveFixture(t)
	r := rand.New(rand.NewSource(11))
	l := modes[0].D.Ad.Rows()
	dst := mat.New(l+1, l+1)
	for trial := 0; trial < 20; trial++ {
		k := mat.New(1, l)
		for s := 0; s < l; s++ {
			k.Set(0, s, 10*r.NormFloat64())
		}
		for _, md := range modes {
			want, _ := ModeClosedLoop(md, k, 0)
			modeClosedLoopInto(dst, md, k)
			for i := 0; i <= l; i++ {
				for j := 0; j <= l; j++ {
					if math.Float64bits(want.At(i, j)) != math.Float64bits(dst.At(i, j)) {
						t.Fatalf("phi[%d,%d]: in-place %v, reference %v", i, j, dst.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestDesignCostStabilityFirst pins the feedforward skip of unstable
// candidates to the pso cutoff contract: across search-box, seed and wild
// vectors and a ladder of cutoffs, cost(x, c) is cost(x, +Inf) bit for bit
// whenever the latter is below c, and >= c otherwise — and the skip
// branch does fire, but never without a cutoff.
func TestDesignCostStabilityFirst(t *testing.T) {
	plan, modes, cons := objectiveFixture(t)
	eval := newDesignEval(plan, modes, cons)
	unstable := 0
	for _, x := range boundCandidates(eval, rand.New(rand.NewSource(13)), 80) {
		before := eval.skipped
		exact := eval.cost(x, math.Inf(1))
		if eval.skipped != before {
			t.Fatalf("x=%v: skipped the feedforward without a cutoff", x)
		}
		if exact >= 2e3 {
			unstable++
		}
		ladder := []float64{0, 1, 1e3, 2e3, exact, math.Nextafter(exact, math.Inf(-1)),
			math.Nextafter(exact, math.Inf(1)), 2 * exact, 1e6, math.Nextafter(1e6, math.Inf(1)), 1e7, math.Inf(1)}
		for _, c := range ladder {
			v := eval.cost(x, c)
			switch {
			case exact < c:
				if math.Float64bits(v) != math.Float64bits(exact) {
					t.Fatalf("x=%v cutoff %v: cost %v, want exact %v", x, c, v, exact)
				}
			case !(v >= c):
				t.Fatalf("x=%v cutoff %v: cost %v below the cutoff (exact %v)", x, c, v, exact)
			}
		}
	}
	if unstable == 0 || eval.skipped == 0 {
		t.Errorf("%d unstable candidates, %d skipped solves; the skip branch never fired", unstable, eval.skipped)
	}
}
