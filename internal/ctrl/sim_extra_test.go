package ctrl

import (
	"math"
	"testing"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
)

func TestSimulateInitialStateAndHeldInput(t *testing.T) {
	// Starting at the reference with matching held input must keep the
	// output glued to the reference (equilibrium start).
	plant := firstOrder() // DC gain 1
	d, err := lti.DiscretizeDelayed(plant, 5e-3, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{{D: d}}
	g := Gains{K: []*mat.Matrix{mat.RowVec(0)}, F: []float64{1}}
	r := 3.0
	tr, err := Simulate(plant, modes, g, r, SimOptions{
		Horizon: 0.5,
		X0:      mat.ColVec(r), // state = output for this plant
		UHeld0:  r,             // input that sustains it
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Dense {
		if math.Abs(s.Y-r) > 1e-9 {
			t.Fatalf("equilibrium start drifted: t=%g y=%g", s.T, s.Y)
		}
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	plant := firstOrder()
	d, _ := lti.DiscretizeDelayed(plant, 5e-3, 0)
	modes := []Mode{{D: d}}
	g := Gains{K: []*mat.Matrix{mat.RowVec(0)}, F: []float64{1}}
	if _, err := Simulate(plant, nil, g, 1, SimOptions{Horizon: 1}); err == nil {
		t.Error("no modes accepted")
	}
	if _, err := Simulate(plant, modes, g, 1, SimOptions{}); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := Gains{K: []*mat.Matrix{mat.RowVec(0, 0)}, F: []float64{1}}
	if _, err := Simulate(plant, modes, bad, 1, SimOptions{Horizon: 1}); err == nil {
		t.Error("wrong gain shape accepted")
	}
}

func TestSimulateDivergenceDetected(t *testing.T) {
	// A wildly destabilizing positive-feedback gain must be reported as an
	// error (non-finite input) rather than producing NaN trajectories.
	plant := servo()
	d, _ := lti.DiscretizeDelayed(plant, 1e-3, 0.5e-3)
	modes := []Mode{{D: d}}
	g := Gains{K: []*mat.Matrix{mat.RowVec(1e6, 1e6)}, F: []float64{0}}
	tr, err := Simulate(plant, modes, g, 0.2, SimOptions{Horizon: 5, X0: mat.ColVec(0.1, 0)})
	if err == nil {
		// If it didn't overflow to non-finite within the horizon, the
		// trajectory must at least be finite.
		for _, s := range tr.Dense {
			if math.IsNaN(s.Y) {
				t.Fatal("NaN escaped the simulator")
			}
		}
	}
}

func TestITAE(t *testing.T) {
	// Right-endpoint rule: the error at t=1 (|0-1| = 1) is the only
	// non-zero contribution.
	tr := &Trajectory{Dense: []lti.Sample{{T: 0, Y: 1}, {T: 1, Y: 0}, {T: 2, Y: 1}}}
	v := tr.ITAE(1)
	if v <= 0 || math.IsInf(v, 0) {
		t.Errorf("ITAE = %g", v)
	}
	perfect := &Trajectory{Dense: []lti.Sample{{T: 0, Y: 1}, {T: 1, Y: 1}}}
	if perfect.ITAE(1) != 0 {
		t.Error("perfect tracking must have zero ITAE")
	}
	empty := &Trajectory{}
	if !math.IsInf(empty.ITAE(1), 1) {
		t.Error("empty trajectory ITAE must be +Inf")
	}
}

func TestBandViolationFraction(t *testing.T) {
	tr := &Trajectory{Dense: []lti.Sample{
		{T: 0, Y: 0}, {T: 1, Y: 1}, {T: 2, Y: 1}, {T: 3, Y: 0},
	}}
	// From t=1: samples 1, 1, 0 -> one of three outside a 2% band around 1.
	got := tr.BandViolationFraction(1, 1, 0.02)
	if math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("violation fraction = %g", got)
	}
	if tr.BandViolationFraction(100, 1, 0.02) != 1 {
		t.Error("empty window must report full violation")
	}
}

func TestMaxDenseDeviationAfter(t *testing.T) {
	tr := &Trajectory{Dense: []lti.Sample{
		{T: 0, Y: 5}, {T: 1, Y: 1.1}, {T: 2, Y: 0.95},
	}}
	if got := tr.MaxDenseDeviationAfter(0.5, 1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("deviation = %g, want 0.1", got)
	}
}

func TestPolishImprovesOrKeeps(t *testing.T) {
	// Polish must never return a worse point than its start.
	obj := func(x []float64, _ float64) float64 { return (x[0]-0.3)*(x[0]-0.3) + math.Abs(x[1]) }
	x0 := []float64{-1, 1}
	v0 := obj(x0, math.Inf(1))
	x, v, evals := polish(x0, v0, []float64{-2, -2}, []float64{2, 2}, obj)
	if v > v0 {
		t.Errorf("polish made it worse: %g -> %g", v0, v)
	}
	if evals <= 0 {
		t.Error("polish must evaluate")
	}
	if math.Abs(x[0]-0.3) > 0.05 || math.Abs(x[1]) > 0.05 {
		t.Errorf("polish did not approach optimum: %v", x)
	}
}

func TestDesignPerModeVsHolisticComparable(t *testing.T) {
	// Both baselines must produce evaluable designs on the same schedule.
	plant := servo()
	der, err := sched.Derive(paperTimings(), sched.Schedule{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Ref: 0.2, UMax: 60, SettleDeadline: 45e-3}
	var opt DesignOptions
	opt.Swarm.Particles = 8
	opt.Swarm.Iterations = 8
	h, err := DesignHolistic(plant, der[0], cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DesignPerMode(plant, der[0], cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Settled {
		t.Error("holistic design failed to settle on the easy servo")
	}
	if h.Evaluations == 0 || p.Evaluations == 0 {
		t.Error("evaluation counts must be reported")
	}
}
