package ctrl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/pso"
	"repro/internal/sched"
)

// Constraints are the per-application design constraints of Section II-A:
// reference magnitude, input saturation, settling deadline (doubling as the
// normalization reference s0), and the settling band.
type Constraints struct {
	Ref            float64 // reference step magnitude r (non-zero)
	UMax           float64 // maximum |u|; <= 0 disables the constraint
	SettleDeadline float64 // s_max (seconds); also the normalization s0
	Band           float64 // settling band fraction (default lti.SettlingBand)
}

func (c Constraints) withDefaults() Constraints {
	if c.Band <= 0 {
		c.Band = lti.SettlingBand
	}
	return c
}

// Validate rejects unusable constraint sets.
func (c Constraints) Validate() error {
	if c.Ref == 0 {
		return errors.New("ctrl: constraints need a non-zero reference")
	}
	if c.SettleDeadline <= 0 {
		return errors.New("ctrl: constraints need a positive settling deadline")
	}
	return nil
}

// DesignOptions tunes the holistic design search. The feedforward is
// always the holistic (periodic-orbit) one; DesignPerMode is the ablation
// with the paper's per-mode Eq. (17) feedforward.
type DesignOptions struct {
	Swarm pso.Options // PSO budget; zero-value uses pso defaults
	Sim   SimOptions  // simulation grid; Horizon <= 0 defaults to 2.5x deadline
}

// The design search's warm start: Ackermann seeds place closed-loop poles
// at warmStartRadii, and the PSO search box is gainScale times the seeds'
// gain magnitudes.
const gainScale = 4

var warmStartRadii = []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.96}

func (o DesignOptions) withDefaults(cons Constraints) DesignOptions {
	if o.Sim.Horizon <= 0 {
		o.Sim.Horizon = 2.5 * cons.SettleDeadline
	}
	if o.Swarm.Particles == 0 {
		o.Swarm.Particles = 24
	}
	if o.Swarm.Iterations == 0 {
		o.Swarm.Iterations = 40
	}
	if o.Swarm.StallLimit == 0 {
		o.Swarm.StallLimit = 12
		if lim := o.Swarm.Iterations / 3; lim > 12 {
			o.Swarm.StallLimit = lim
		}
	}
	return o
}

// Design is a completed controller design with its evaluation. An
// unstable design, or one whose simulated input diverges, keeps only its
// gains, modes and spectral radius, with an infinite settling time.
type Design struct {
	Gains          Gains
	Modes          []Mode
	SettlingTime   float64 // worst-case settling time s_i of y[k] (seconds)
	Settled        bool
	SpectralRadius float64 // of the monodromy matrix
	MaxInput       float64 // peak |u[k]| over the evaluation run
	// MaxRipple is the peak |y(t)-r| of the dense output from the sampled
	// settling instant on. It is defined only when Settled and 0
	// otherwise, so RippleOK is meaningful only for settled designs
	// (Feasible requires both).
	MaxRipple   float64
	RippleOK    bool    // intersample ripple stays within 5x the band
	Performance float64 // P_i = 1 - s_i/s0 (Eq. 2)
	Feasible    bool    // stable, settled, within saturation and deadline
	Evaluations int     // objective evaluations spent
	Trajectory  *Trajectory
}

// DesignHolistic designs all gains of one application's schedule period
// together (Section III): a layered search (periodic-LQR warm starts, a
// shared-gain PSO pre-solve, the full per-mode PSO, and a deterministic
// compass polish) over the stacked per-task feedback gains, feedforward
// gains solved from the closed-loop periodic orbit (equivalent to Eq. (17)
// here), stability enforced on the lifted closed loop, and the worst-case
// settling time of the sampled output as the objective, with the reference
// step applied right after the application's burst.
func DesignHolistic(plant *lti.System, as sched.AppSchedule, cons Constraints, opt DesignOptions) (*Design, error) {
	cons = cons.withDefaults()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(cons)
	modes, err := ModesFromSchedule(plant, as)
	if err != nil {
		return nil, err
	}
	m, l := len(modes), plant.Order()
	opt.Sim.InitialGap = as.Gap

	// Compile the simulation once: every objective evaluation of both PSO
	// phases and the polish reuses the same precomputed segments and scratch
	// pool instead of re-discretizing the plant per call.
	plan, err := CompileSimPlan(plant, modes, opt.Sim)
	if err != nil {
		return nil, err
	}

	ackSeeds, scale := warmStarts(plant, modes)
	lqrSeeds, lqrScale := LQRSeedGains(modes)
	for s := range scale {
		if s < len(lqrScale) && lqrScale[s] > scale[s] {
			scale[s] = lqrScale[s]
		}
	}
	// Seed priority matters: the swarm only adopts the first Particles
	// seeds, so the robust periodic-LQR designs go first and the
	// aggressive Ackermann families last.
	seeds := append(append([][]float64{}, lqrSeeds...), ackSeeds...)
	evals := 0

	// One reusable evaluation scratch for the calling goroutine (both PSO
	// phases, the polish and the final evaluation); the pools get an
	// independent instance per worker so every worker's gain buffers and
	// workspaces stay private and cache-hot. All instances compute the
	// same costs bit for bit.
	eval := newDesignEval(plan, modes, cons)
	newObjective := func() func([]float64, float64) float64 {
		return newDesignEval(plan, modes, cons).cost
	}
	newShared := func() func([]float64, float64) float64 {
		return newDesignEval(plan, modes, cons).sharedCost
	}

	// Phase 1: search a single gain shared by all modes (dimension l).
	// This low-dimensional pre-solve reliably lands in the feasible basin;
	// its optimum seeds the full per-mode search.
	tile := func(k []float64) []float64 {
		out := make([]float64, 0, m*l)
		for j := 0; j < m; j++ {
			out = append(out, k...)
		}
		return out
	}
	lower1 := make([]float64, l)
	upper1 := make([]float64, l)
	for s := 0; s < l; s++ {
		lower1[s] = -scale[s]
		upper1[s] = +scale[s]
	}
	swarm1 := opt.Swarm
	swarm1.Seeds = nil
	for _, sd := range seeds {
		swarm1.Seeds = append(swarm1.Seeds, sd[:l]) // first mode's gain of each warm start
	}
	res1, err := pso.Minimize(pso.Problem{
		Dim: l, Lower: lower1, Upper: upper1,
		Objective: eval.sharedCost, NewObjective: newShared,
	}, swarm1)
	if err != nil {
		return nil, err
	}
	evals += res1.Evaluations

	// Phase 2: full per-mode search seeded with the shared optimum and the
	// analytic warm starts.
	dim := m * l
	lower := make([]float64, dim)
	upper := make([]float64, dim)
	for j := 0; j < m; j++ {
		for s := 0; s < l; s++ {
			lower[j*l+s] = -scale[s]
			upper[j*l+s] = +scale[s]
		}
	}
	opt.Swarm.Seeds = append([][]float64{tile(res1.X)}, seeds...)
	res, err := pso.Minimize(pso.Problem{
		Dim: dim, Lower: lower, Upper: upper,
		Objective: eval.cost, NewObjective: newObjective,
	}, opt.Swarm)
	if err != nil {
		return nil, err
	}
	evals += res.Evaluations

	best := res.X
	bestVal := res.Value
	if res1.Value < bestVal {
		best, bestVal = tile(res1.X), res1.Value // phase 2 must never lose to its own seed
	}

	// Phase 3: deterministic compass-search polish. PSO leaves plateau
	// noise on the staircase-shaped settling objective; a shrinking
	// coordinate descent from the incumbent removes it cheaply.
	best, _, pEvals := polish(best, bestVal, lower, upper, eval.cost)
	evals += pEvals

	// The winner's gains are evaluated on the search's own plan and
	// workspace; no second plan is compiled.
	k := make([]*mat.Matrix, m)
	for j := range k {
		k[j] = mat.RowVec(best[j*l : (j+1)*l]...)
	}
	f, err := HolisticFeedforward(modes, k)
	if err != nil {
		return nil, fmt.Errorf("ctrl: best PSO point invalid: %w", err)
	}
	d, err := eval.evaluate(Gains{K: k, F: f})
	if err != nil {
		return nil, err
	}
	d.Evaluations = evals
	return d, nil
}

// EvaluateDesign runs the definitive evaluation of a gain set: stability,
// worst-case settling simulation, saturation, and the performance index.
// sim.Horizon <= 0 defaults as in DesignOptions. An unstable or diverging
// closed loop is an infeasible design, not an error; invalid gains or
// simulation options are errors.
func EvaluateDesign(plant *lti.System, modes []Mode, g Gains, cons Constraints, sim SimOptions) (*Design, error) {
	cons = cons.withDefaults()
	sim = DesignOptions{Sim: sim}.withDefaults(cons).Sim
	plan, err := CompileSimPlan(plant, modes, sim)
	if err != nil {
		return nil, err
	}
	return newDesignEval(plan, modes, cons).evaluate(g)
}

// polish runs a bounded compass (pattern) search from x0: probe +/- step
// along every coordinate, move to the best improvement, halve the step when
// none improves. Deterministic, at most ~40*dim objective evaluations. Each
// probe gets the incumbent value as its cutoff (the pso contract): polish
// only asks whether a probe beats it.
func polish(x0 []float64, v0 float64, lower, upper []float64, objective func([]float64, float64) float64) ([]float64, float64, int) {
	dim := len(x0)
	x := append([]float64(nil), x0...)
	v := v0
	step := make([]float64, dim)
	for i := range step {
		step[i] = 0.05 * (upper[i] - lower[i])
	}
	evals := 0
	probe := append([]float64(nil), x...)
	for round := 0; round < 20; round++ {
		improved := false
		for i := 0; i < dim; i++ {
			for _, dir := range []float64{+1, -1} {
				copy(probe, x)
				probe[i] = clampTo(probe[i]+dir*step[i], lower[i], upper[i])
				if probe[i] == x[i] {
					continue
				}
				pv := objective(probe, v)
				evals++
				if pv < v {
					v = pv
					x[i] = probe[i]
					improved = true
				}
			}
		}
		if !improved {
			for i := range step {
				step[i] *= 0.5
			}
		}
	}
	return x, v, evals
}

func clampTo(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// divergedScore is the design cost of a simulation that fails (diverges).
const divergedScore = 1e5

// settledCost is the design cost of a run that settles at settle with
// normalized ITAE itae, before penalties. The early-exit bound of the
// streaming run (metricsAcc.instant) composes its terms through this same
// helper, so bound and cost round identically on every GOARCH, whether or
// not the compiler fuses the multiply-add.
func settledCost(settle, horizon, itae float64) float64 {
	return settle + 0.25*horizon*itae
}

// monodromyScore turns a stability verdict plus the streaming simulation
// metrics into the scalar design cost; shared by designEval and the
// allocating reference path of the tests (designObjective in
// objective_test.go) so the two paths cannot drift. It honours the pso
// cutoff contract: once the simulation's admissible lower bound on the
// cost reaches cutoff, the run stops and the bound (>= cutoff) is
// returned; below the cutoff the cost is exact.
func monodromyScore(plan *SimPlan, g Gains, cons Constraints, stable bool, rho float64, err error, cutoff float64) float64 {
	if err != nil || math.IsNaN(rho) {
		return 1e6
	}
	if !stable {
		// Push toward the stability boundary.
		return 1e3 * (1 + rho)
	}
	horizon := plan.Horizon()
	acc := plan.newCostAcc(cons, cutoff)
	if err := plan.run(g, cons.Ref, nil, &acc); err == errCutoff {
		return acc.lb
	} else if err != nil {
		return divergedScore
	}
	met := acc.finalize()
	// The sampled settling time is a staircase in gain space; the smooth
	// ITAE term gives the swarm a gradient across its plateaus.
	obj := settledCost(met.SettlingTime, horizon, met.ITAE)
	if !met.Settled {
		// Shape the landscape for nearly settling designs: reward staying
		// mostly inside the band over the second half of the horizon.
		obj = horizon * (1.5 + met.BandViolation + met.FinalError/math.Abs(cons.Ref))
	} else {
		// Penalize intersample ringing beyond 5x the band so the sampled
		// metric cannot hide wild continuous behavior.
		if rip := met.MaxDevAfterSettle; rip > 5*cons.Band*math.Abs(cons.Ref) {
			obj += horizon * (rip/(5*cons.Band*math.Abs(cons.Ref)) - 1)
		}
	}
	if cons.UMax > 0 && met.PeakInput > cons.UMax {
		obj = saturationCost(obj, met.PeakInput, cons.UMax, horizon)
	}
	return obj
}

// saturationCost adds to cost the penalty of a peak input above the
// saturation limit uMax > 0. Like settledCost it is the one place the term
// is composed, shared by monodromyScore and the early-exit bound, so the
// two round identically; the penalty grows with peak.
func saturationCost(cost, peak, uMax, horizon float64) float64 {
	return cost + horizon*5*(peak/uMax-1)
}

// warmStarts produces Ackermann-based seed gain vectors and a per-state
// search scale. Seeds place real poles of radius rho on each mode's
// zero-delay ZOH pair; per-mode gains are stacked into the decision vector.
// The search box is derived from the *moderate* radii only (>= 0.5), since
// aggressive low-radius gains blow the box up to regions where every point
// saturates or destabilizes.
func warmStarts(plant *lti.System, modes []Mode) (seeds [][]float64, scale []float64) {
	m, l := len(modes), plant.Order()
	scale = make([]float64, l)
	for _, rho := range warmStartRadii {
		poles := make([]complex128, l)
		for s := 0; s < l; s++ {
			// Distinct real poles descending from rho.
			poles[s] = complex(rho*math.Pow(0.8, float64(s)), 0)
		}
		vec := make([]float64, 0, m*l)
		ok := true
		for j := 0; j < m; j++ {
			k, err := Ackermann(modes[j].D.Ad, modes[j].D.BTotal(), poles)
			if err != nil {
				ok = false
				break
			}
			for s := 0; s < l; s++ {
				v := k.At(0, s)
				vec = append(vec, v)
				if a := math.Abs(v); a > scale[s] && rho >= 0.5 {
					scale[s] = a
				}
			}
		}
		if ok {
			seeds = append(seeds, vec)
			// Down-scaled variants cover the low-gain corner, which is
			// where saturation-limited designs live.
			for _, sc := range []float64{0.3, 0.1, 0.03} {
				scaled := make([]float64, len(vec))
				for i, v := range vec {
					scaled[i] = sc * v
				}
				seeds = append(seeds, scaled)
			}
		}
	}
	// Continuous-time designs used directly as discrete state-feedback
	// gains: classic emulation design, inherently tolerant of the one-step
	// actuation delays of in-burst tasks. Bandwidths are expressed relative
	// to the mean sampling rate.
	meanH := 0.0
	for _, md := range modes {
		meanH += md.D.H
	}
	meanH /= float64(m)
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.35, 0.5} {
		alpha := frac * 2 * math.Pi / meanH
		poles := make([]complex128, l)
		for s := 0; s < l; s++ {
			poles[s] = complex(-alpha*math.Pow(0.85, float64(s)), 0)
		}
		k, err := Ackermann(plant.A, plant.B, poles)
		if err != nil {
			continue
		}
		vec := make([]float64, 0, m*l)
		for j := 0; j < m; j++ {
			for s := 0; s < l; s++ {
				v := k.At(0, s)
				vec = append(vec, v)
				if a := math.Abs(v); a > scale[s] {
					scale[s] = a
				}
			}
		}
		seeds = append(seeds, vec)
	}

	for s := range scale {
		if scale[s] == 0 {
			scale[s] = 1
		}
		scale[s] *= gainScale
	}
	return seeds, scale
}

// DesignPerMode is the non-holistic ablation baseline: each task's gain is
// designed in isolation as if its own sampling interval repeated uniformly,
// then the per-mode designs are combined and evaluated on the true switched
// system. The gap between this and DesignHolistic quantifies the value of
// the paper's joint design.
func DesignPerMode(plant *lti.System, as sched.AppSchedule, cons Constraints, opt DesignOptions) (*Design, error) {
	cons = cons.withDefaults()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(cons)
	modes, err := ModesFromSchedule(plant, as)
	if err != nil {
		return nil, err
	}
	m := len(modes)

	g := Gains{K: make([]*mat.Matrix, m), F: make([]float64, m)}
	evals := 0
	for j := 0; j < m; j++ {
		single := sched.AppSchedule{
			Name:    as.Name,
			M:       1,
			WCETs:   []float64{as.WCETs[j]},
			Periods: []float64{as.Periods[j]},
			Delays:  []float64{as.Delays[j]},
			Gap:     as.Periods[j] - as.Delays[j],
		}
		sub, err := DesignHolistic(plant, single, cons, opt)
		if err != nil {
			return nil, fmt.Errorf("ctrl: per-mode design %d: %w", j, err)
		}
		evals += sub.Evaluations
		g.K[j] = sub.Gains.K[0]
	}
	for j := 0; j < m; j++ {
		f, err := Feedforward(modes[j].D.Ad, modes[j].D.BTotal(), modes[j].D.C, g.K[j])
		if err != nil {
			return nil, err
		}
		g.F[j] = f
	}
	sim := opt.Sim
	sim.InitialGap = as.Gap
	d, err := EvaluateDesign(plant, modes, g, cons, sim)
	if err != nil {
		return nil, err
	}
	d.Evaluations = evals
	return d, nil
}
