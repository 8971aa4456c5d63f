package ctrl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
)

// evalProblem is one design problem the evaluation tests draw gains for.
type evalProblem struct {
	name  string
	plant *lti.System
	modes []Mode
	cons  Constraints
	sim   SimOptions
}

// evalProblems returns the objective fixture and the servo under two
// schedules.
func evalProblems(t *testing.T) []evalProblem {
	t.Helper()
	plant, modes, cons, sim := objectiveProblem(t)
	ps := []evalProblem{{"fixture", plant, modes, cons, sim}}
	for _, s := range []sched.Schedule{{2, 2, 2}, {3, 2, 3}} {
		modes, as := modesFor(t, servo(), s, 0)
		cons := Constraints{Ref: 0.2, UMax: 60, SettleDeadline: 45e-3}
		ps = append(ps, evalProblem{fmt.Sprint("servo", s), servo(), modes, cons,
			SimOptions{Horizon: 2.5 * cons.SettleDeadline, InitialGap: as.Gap}})
	}
	return ps
}

// evalCandidates draws n decision vectors for p: periodic-LQR seeds
// jittered by 10% and weakened up to 1000x (settled and sluggish runs),
// and wild gains from 0.1 to 1000 (mostly unstable).
func evalCandidates(p evalProblem, r *rand.Rand, n int) [][]float64 {
	seeds, _ := LQRSeedGains(p.modes)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, len(p.modes)*p.plant.Order())
		if i%3 == 0 && len(seeds) > 0 {
			sd, weak := seeds[i/3%len(seeds)], math.Pow(10, -3*r.Float64())
			for j := range x {
				x[j] = sd[j] * weak * (1 + 0.1*r.NormFloat64())
			}
		} else {
			scale := math.Pow(10, float64(r.Intn(5))-1)
			for j := range x {
				x[j] = scale * r.NormFloat64()
			}
		}
		xs[i] = x
	}
	return xs
}

// designDiff returns the first field where got and want differ in bits,
// or "" when they agree. MaxRipple and RippleOK count only on settled
// runs.
func designDiff(got, want *Design) string {
	type pair struct {
		name string
		g, w []float64
	}
	floats := []pair{
		{"SettlingTime", []float64{got.SettlingTime}, []float64{want.SettlingTime}},
		{"SpectralRadius", []float64{got.SpectralRadius}, []float64{want.SpectralRadius}},
		{"MaxInput", []float64{got.MaxInput}, []float64{want.MaxInput}},
		{"Performance", []float64{got.Performance}, []float64{want.Performance}},
		{"F", got.Gains.F, want.Gains.F},
	}
	if want.Settled {
		floats = append(floats, pair{"MaxRipple", []float64{got.MaxRipple}, []float64{want.MaxRipple}})
		if got.RippleOK != want.RippleOK {
			return fmt.Sprintf("RippleOK %v, want %v", got.RippleOK, want.RippleOK)
		}
	}
	if tr, wt := got.Trajectory, want.Trajectory; tr != nil && wt != nil {
		floats = append(floats, pair{"Times", tr.Times, wt.Times}, pair{"Outputs", tr.Outputs, wt.Outputs},
			pair{"Inputs", tr.Inputs, wt.Inputs})
		if len(tr.Dense) != len(wt.Dense) {
			return fmt.Sprintf("%d dense samples, want %d", len(tr.Dense), len(wt.Dense))
		}
		for i := range wt.Dense {
			if !sameBits(tr.Dense[i], wt.Dense[i]) {
				return fmt.Sprintf("dense sample %d: %+v, want %+v", i, tr.Dense[i], wt.Dense[i])
			}
		}
	}
	for _, f := range floats {
		if i := firstBitDiff(f.g, f.w); i >= 0 {
			return fmt.Sprintf("%s differs at %d (lengths %d, %d)", f.name, i, len(f.g), len(f.w))
		}
	}
	switch {
	case got.Settled != want.Settled:
		return fmt.Sprintf("Settled %v, want %v", got.Settled, want.Settled)
	case got.Feasible != want.Feasible:
		return fmt.Sprintf("Feasible %v, want %v", got.Feasible, want.Feasible)
	case got.Evaluations != want.Evaluations:
		return fmt.Sprintf("Evaluations %d, want %d", got.Evaluations, want.Evaluations)
	case len(got.Modes) != len(want.Modes) || len(got.Gains.K) != len(want.Gains.K):
		return "mode or gain count differs"
	case (got.Trajectory == nil) != (want.Trajectory == nil):
		return fmt.Sprintf("trajectory %v, want %v", got.Trajectory != nil, want.Trajectory != nil)
	}
	for j, k := range want.Gains.K {
		if !got.Gains.K[j].Equal(k, 0) {
			return fmt.Sprintf("K%d differs", j)
		}
	}
	return ""
}

// TestEvaluateDesignMatchesReference pins EvaluateDesign — designEval's
// stability plus metrics streamed at the reported band — to the former
// allocating evaluation, field by field and bit for bit, on random gain
// sets with their holistic feedforward. An enormous initial state makes
// some stable runs diverge. Every outcome must occur: settled, unsettled,
// unstable and diverged.
func TestEvaluateDesignMatchesReference(t *testing.T) {
	counts := map[string]int{}
	r := rand.New(rand.NewSource(19))
	for _, p := range evalProblems(t) {
		for i, x := range evalCandidates(p, r, 90) {
			g, err := gainsFromVector(x, p.modes)
			if err != nil {
				t.Fatalf("%s candidate %d: %v", p.name, i, err)
			}
			sim := p.sim
			if i%5 == 3 {
				huge := make([]float64, p.plant.Order())
				for s := range huge {
					huge[s] = math.MaxFloat64
				}
				sim.X0 = mat.ColVec(huge...)
			}
			want, err := evaluateDesignReference(p.plant, p.modes, g, p.cons, sim)
			if err != nil {
				t.Fatalf("%s candidate %d: reference: %v", p.name, i, err)
			}
			got, err := EvaluateDesign(p.plant, p.modes, g, p.cons, sim)
			if err != nil {
				t.Fatalf("%s candidate %d: %v", p.name, i, err)
			}
			if d := designDiff(got, want); d != "" {
				t.Fatalf("%s candidate %d (x=%v): %s", p.name, i, x, d)
			}
			switch {
			case !(want.SpectralRadius < 1):
				counts["unstable"]++
			case want.Trajectory == nil:
				counts["diverged"]++
			case want.Settled:
				counts["settled"]++
			default:
				counts["unsettled"]++
			}
		}
	}
	t.Logf("outcomes: %v", counts)
	for _, k := range []string{"settled", "unsettled", "unstable", "diverged"} {
		if counts[k] == 0 {
			t.Errorf("no %s run among the candidates: %v", k, counts)
		}
	}
}

// TestHolisticFeedforwardMatchesReference pins the workspace feedforward,
// which HolisticFeedforward and the design cost share, to the allocating
// mat.Solve reference bit for bit.
func TestHolisticFeedforwardMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, p := range evalProblems(t) {
		l := p.plant.Order()
		for i, x := range evalCandidates(p, r, 60) {
			k := make([]*mat.Matrix, len(p.modes))
			for j := range k {
				k[j] = mat.RowVec(x[j*l : (j+1)*l]...)
			}
			want, werr := holisticFeedforwardReference(p.modes, k)
			got, err := HolisticFeedforward(p.modes, k)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s candidate %d: error %v, reference %v", p.name, i, err, werr)
			}
			if at := firstBitDiff(got, want); at >= 0 {
				t.Fatalf("%s candidate %d: F = %v, reference %v (first difference at %d)", p.name, i, got, want, at)
			}
		}
	}
}

// TestEvaluateDesignReportsConfigErrors: invalid simulation options and
// gains are errors, not infeasible designs; a zero horizon takes
// DesignOptions' default; a run whose input diverges stays an infeasible
// design without an error.
func TestEvaluateDesignReportsConfigErrors(t *testing.T) {
	plant := servo()
	modes, as := modesFor(t, plant, sched.Schedule{2, 2, 2}, 0)
	ks, err := PeriodicLQR(modes, 1, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := HolisticFeedforward(modes, ks)
	if err != nil {
		t.Fatal(err)
	}
	g := Gains{K: ks, F: fs}
	cons := Constraints{Ref: 0.2, UMax: 60, SettleDeadline: 45e-3}

	explicit, err := EvaluateDesign(plant, modes, g, cons, SimOptions{Horizon: 2.5 * cons.SettleDeadline, InitialGap: as.Gap})
	if err != nil {
		t.Fatal(err)
	}
	if !explicit.Settled || math.IsInf(explicit.SettlingTime, 0) {
		t.Fatalf("fixture gains do not settle: %+v", explicit)
	}
	defaulted, err := EvaluateDesign(plant, modes, g, cons, SimOptions{InitialGap: as.Gap})
	if err != nil {
		t.Fatalf("zero horizon: %v", err)
	}
	if d := designDiff(defaulted, explicit); d != "" {
		t.Fatalf("zero horizon does not take the default 2.5x deadline: %s", d)
	}

	for _, c := range []struct {
		name string
		sim  SimOptions
		g    Gains
	}{
		{"NaN horizon", SimOptions{Horizon: math.NaN()}, g},
		{"infinite horizon", SimOptions{Horizon: math.Inf(1)}, g},
		{"initial state shape", SimOptions{Horizon: 0.1, X0: mat.ColVec(1, 2, 3)}, g},
		{"gain count", SimOptions{Horizon: 0.1}, Gains{K: ks[:1], F: fs[:1]}},
	} {
		if d, err := EvaluateDesign(plant, modes, c.g, cons, c.sim); err == nil {
			t.Errorf("%s: design (settling %v, feasible %v), want an error", c.name, d.SettlingTime, d.Feasible)
		}
	}

	x0 := mat.ColVec(math.MaxFloat64, math.MaxFloat64)
	d, err := EvaluateDesign(plant, modes, g, cons, SimOptions{Horizon: 0.1, X0: x0})
	if err != nil {
		t.Fatalf("diverging run: %v", err)
	}
	if d.Feasible || !math.IsInf(d.SettlingTime, 1) || d.Trajectory != nil || !(d.SpectralRadius < 1) {
		t.Errorf("diverging run: feasible %v, settling %v, trajectory %v, rho %v; want the infeasible stable design",
			d.Feasible, d.SettlingTime, d.Trajectory != nil, d.SpectralRadius)
	}
}
