package ctrl

import (
	"repro/internal/lti"
	"repro/internal/mat"
)

// SimOptions configures the closed-loop simulation.
type SimOptions struct {
	// Horizon is the simulated duration in seconds after the reference
	// step. Required > 0.
	Horizon float64
	// DtMax is the densest output sampling interval; intervals are
	// subdivided so no output gap exceeds it (default: Horizon/2000).
	DtMax float64
	// InitialGap delays the first sampling instant after the reference
	// step; the paper's worst-case convention starts tracking right after
	// the application's last burst task, so the plant idles for the gap
	// before the first new sample (Section V). Negative means zero.
	InitialGap float64
	// X0 optionally sets the initial plant state (default: origin).
	X0 *mat.Matrix
	// UHeld0 is the input held at t=0 (default 0: old equilibrium).
	UHeld0 float64
}

// Trajectory is a simulated closed-loop run.
type Trajectory struct {
	Dense   []lti.Sample // densely sampled output y(t)
	Inputs  []float64    // control input computed at each sampling instant
	Times   []float64    // sampling instants
	Outputs []float64    // output at sampling instants
}

// Simulate runs the periodically switched closed loop against a reference
// step r, starting worst-case (per SimOptions.InitialGap), and returns the
// dense trajectory. Inputs are NOT saturated: exceeding a bound is reported
// by the caller as a constraint violation, matching the paper's u <= Umax
// design constraint.
//
// Simulate compiles a fresh SimPlan per call and runs its Simulate;
// evaluation loops that run the same (plant, modes, options) against many
// gain sets should compile the plan once with CompileSimPlan and call its
// Simulate/Metrics methods.
func Simulate(plant *lti.System, modes []Mode, g Gains, r float64, opt SimOptions) (*Trajectory, error) {
	plan, err := CompileSimPlan(plant, modes, opt)
	if err != nil {
		return nil, err
	}
	return plan.Simulate(g, r)
}
