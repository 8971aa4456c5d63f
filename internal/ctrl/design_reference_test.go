package ctrl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lti"
	"repro/internal/mat"
)

// This file keeps the allocating controller evaluation as the oracle of
// designEval and the streaming metrics: the closed-loop mode matrices,
// monodromy and stability built with Mul/Add, the holistic feedforward
// solved with mat.Solve, the dense-trajectory metrics, and the former
// EvaluateDesign on top of them. Production computes each of these once,
// on designEval and SimPlan; the tests below and in objective_test.go,
// simplan_test.go and bound_test.go pin it to these bit for bit.

// ModeClosedLoop returns the closed-loop transition matrix of one mode on
// the augmented state z = [x; u_held]:
//
//	z[k+1] = [ Ad + BCur*K   BPrev ] z[k] + [ BCur*F ] r
//	         [      K          0   ]        [    F   ]
func ModeClosedLoop(m Mode, k *mat.Matrix, f float64) (phi *mat.Matrix, gamma *mat.Matrix) {
	l := m.D.Ad.Rows()
	phi = mat.New(l+1, l+1)
	phi.SetSlice(0, 0, m.D.Ad.Add(m.D.BCur.Mul(k)))
	phi.SetSlice(0, l, m.D.BPrev)
	phi.SetSlice(l, 0, k)
	gamma = mat.New(l+1, 1)
	gamma.SetSlice(0, 0, m.D.BCur.Scale(f))
	gamma.Set(l, 0, f)
	return phi, gamma
}

// Monodromy returns the product Phi = M_m * ... * M_1 of the closed-loop
// mode matrices over one schedule period.
func Monodromy(modes []Mode, g Gains) (*mat.Matrix, error) {
	if len(modes) == 0 {
		return nil, errors.New("ctrl: no modes")
	}
	l := modes[0].D.Ad.Rows()
	if err := g.Validate(len(modes), l); err != nil {
		return nil, err
	}
	phi := mat.Identity(l + 1)
	for j := range modes {
		mj, _ := ModeClosedLoop(modes[j], g.K[j], g.F[j])
		phi = mj.Mul(phi)
	}
	return phi, nil
}

// StableMonodromy reports the closed-loop stability of the switched system
// and its spectral radius.
func StableMonodromy(modes []Mode, g Gains) (bool, float64, error) {
	phi, err := Monodromy(modes, g)
	if err != nil {
		return false, 0, err
	}
	rho, err := mat.NewEigWorkspace(phi.Rows()).SpectralRadius(phi)
	if err != nil {
		return false, 0, err
	}
	return rho < 1, rho, nil
}

// holisticFeedforwardReference solves HolisticFeedforward's periodic-orbit
// conditions in freshly allocated matrices.
func holisticFeedforwardReference(modes []Mode, k []*mat.Matrix) ([]float64, error) {
	m := len(modes)
	if m == 0 {
		return nil, errors.New("ctrl: no modes")
	}
	l := modes[0].D.Ad.Rows()
	n := l + 1     // augmented state dimension
	dim := m*n + m // unknowns: z_0..z_{m-1}, F_0..F_{m-1}
	a := mat.New(dim, dim)
	b := mat.New(dim, 1)

	for j := 0; j < m; j++ {
		mj, _ := ModeClosedLoop(modes[j], k[j], 0) // F enters via ĝ_j below
		gj := mat.New(n, 1)
		gj.SetSlice(0, 0, modes[j].D.BCur)
		gj.Set(l, 0, 1)
		next := (j + 1) % m
		// Rows j*n .. j*n+n-1:  z_next - M_j z_j - g_j F_j = 0.
		for r := 0; r < n; r++ {
			row := j*n + r
			a.Set(row, next*n+r, 1)
			for c := 0; c < n; c++ {
				a.Set(row, j*n+c, a.At(row, j*n+c)-mj.At(r, c))
			}
			a.Set(row, m*n+j, -gj.At(r, 0))
		}
	}
	// Output constraints: C x_j = 1 at every sampling instant.
	cRow := modes[0].D.C
	for j := 0; j < m; j++ {
		row := m*n + j
		for s := 0; s < l; s++ {
			a.Set(row, j*n+s, cRow.At(0, s))
		}
		b.Set(row, 0, 1)
	}

	w, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctrl: holistic feedforward: %w", err)
	}
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		out[j] = w.At(m*n+j, 0)
	}
	return out, nil
}

// gainsFromVector unpacks a decision vector into per-mode gains with the
// reference holistic feedforward.
func gainsFromVector(x []float64, modes []Mode) (Gains, error) {
	m, l := len(modes), modes[0].D.Ad.Rows()
	g := Gains{K: make([]*mat.Matrix, m)}
	for j := 0; j < m; j++ {
		g.K[j] = mat.RowVec(x[j*l : (j+1)*l]...)
	}
	fs, err := holisticFeedforwardReference(modes, g.K)
	if err != nil {
		return Gains{}, err
	}
	g.F = fs
	return g, nil
}

// LiftedAhol builds the paper's explicit 2l-by-2l lifted closed-loop matrix
// of Eq. (16) for the two-mode case (schedule bursts of length 2), on the
// state z[k] = [x[k]; x[k+1]]. It cross-validates Monodromy: the non-zero
// eigenvalues of A_hol must match those of the augmented two-mode
// monodromy.
//
// Mode conventions follow Section III: mode 1 is an in-burst interval
// (tau = h, input matrix B1 = Γ(h1)), mode 2 the burst-final interval with
// tau2 < h2 and split input matrices B12 (held) and B22 (current).
func LiftedAhol(mode1, mode2 Mode, k1, k2 *mat.Matrix) *mat.Matrix {
	a1 := mode1.D.Ad
	b1 := mode1.D.BPrev // Γ(h1): in-burst interval has tau = h
	a2 := mode2.D.Ad
	b12 := mode2.D.BPrev
	b22 := mode2.D.BCur

	// x[k]   = A2 x[k-1] + B12 u[k-2] + B22 u[k-1]
	// x[k+1] = A1 x[k]   + B1 u[k-1]
	// with u[k-2] = K1 x[k-2], u[k-1] = K2 x[k-1]  (reference terms omitted:
	// A_hol is the autonomous part).
	top0 := b12.Mul(k1)                  // coefficient of x[k-2] in x[k]
	top1 := a2.Add(b22.Mul(k2))          // coefficient of x[k-1] in x[k]
	bot0 := a1.Mul(b12).Mul(k1)          // coefficient of x[k-2] in x[k+1]
	bot1 := a1.Mul(top1).Add(b1.Mul(k2)) // coefficient of x[k-1] in x[k+1]
	l := a1.Rows()
	ahol := mat.New(2*l, 2*l)
	ahol.SetSlice(0, 0, top0)
	ahol.SetSlice(0, l, top1)
	ahol.SetSlice(l, 0, bot0)
	ahol.SetSlice(l, l, bot1)
	return ahol
}

// stepInfo summarizes a step response: settling time, whether it settled,
// peak output, and peak |input|.
type stepInfo struct {
	SettlingTime float64
	Settled      bool
	PeakOutput   float64
	PeakInput    float64
}

// settlingTime returns the earliest sample time after which the output
// remains inside the band [r-δ, r+δ] with δ = band*|r| for the remainder of
// the trajectory, and true. If the trajectory never settles (or leaves the
// band again before the horizon ends), it returns the horizon end and
// false. An empty trajectory never settles.
func settlingTime(traj []lti.Sample, r, band float64) (float64, bool) {
	if len(traj) == 0 {
		return math.Inf(1), false
	}
	delta := band * math.Abs(r)
	settleIdx := -1
	for i, s := range traj {
		if math.Abs(s.Y-r) <= delta {
			if settleIdx < 0 {
				settleIdx = i
			}
		} else {
			settleIdx = -1
		}
	}
	if settleIdx < 0 {
		return traj[len(traj)-1].T, false
	}
	return traj[settleIdx].T, true
}

// maxAbsInput returns the largest |u| over an input trajectory.
func maxAbsInput(u []float64) float64 {
	max := 0.0
	for _, v := range u {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// analyzeStep computes stepInfo for an output trajectory, reference r, and
// the applied input sequence.
func analyzeStep(traj []lti.Sample, u []float64, r, band float64) stepInfo {
	st, ok := settlingTime(traj, r, band)
	peak := math.Inf(-1)
	for _, s := range traj {
		if s.Y > peak {
			peak = s.Y
		}
	}
	return stepInfo{SettlingTime: st, Settled: ok, PeakOutput: peak, PeakInput: maxAbsInput(u)}
}

// Evaluate summarizes the trajectory at the sampling instants, the paper's
// performance metric: the settling time of the sampled output y[k].
func (tr *Trajectory) Evaluate(r, band float64) stepInfo {
	sampled := make([]lti.Sample, len(tr.Times))
	for i, t := range tr.Times {
		sampled[i] = lti.Sample{T: t, Y: tr.Outputs[i]}
	}
	return analyzeStep(sampled, tr.Inputs, r, band)
}

// MaxDenseDeviationAfter returns the largest |y(t) - r| over the dense
// trajectory for t >= from.
func (tr *Trajectory) MaxDenseDeviationAfter(from, r float64) float64 {
	max := 0.0
	for _, s := range tr.Dense {
		if s.T < from {
			continue
		}
		if d := math.Abs(s.Y - r); d > max {
			max = d
		}
	}
	return max
}

// BandViolationFraction returns the fraction of dense samples with t >= from
// lying outside the band around r.
func (tr *Trajectory) BandViolationFraction(from, r, band float64) float64 {
	total, out := 0, 0
	delta := band * math.Abs(r)
	for _, s := range tr.Dense {
		if s.T < from {
			continue
		}
		total++
		if math.Abs(s.Y-r) > delta {
			out++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(out) / float64(total)
}

// ITAE returns the normalized integral of time-weighted absolute error of
// the dense output, ∫ t·|y(t)-r| dt / (|r|·T²/2).
func (tr *Trajectory) ITAE(r float64) float64 {
	if len(tr.Dense) < 2 {
		return math.Inf(1)
	}
	sum := 0.0
	for i := 1; i < len(tr.Dense); i++ {
		dt := tr.Dense[i].T - tr.Dense[i-1].T
		sum += tr.Dense[i].T * math.Abs(tr.Dense[i].Y-r) * dt
	}
	T := tr.Dense[len(tr.Dense)-1].T
	norm := math.Abs(r) * T * T / 2
	if norm == 0 {
		return math.Inf(1)
	}
	return sum / norm
}

// FinalError returns |y(T) - r| at the last dense sample.
func (tr *Trajectory) FinalError(r float64) float64 {
	if len(tr.Dense) == 0 {
		return math.Inf(1)
	}
	return math.Abs(tr.Dense[len(tr.Dense)-1].Y - r)
}

// evaluateDesignReference is the former EvaluateDesign: stability from
// StableMonodromy, a recorded Simulate run, and its dense metrics.
func evaluateDesignReference(plant *lti.System, modes []Mode, g Gains, cons Constraints, sim SimOptions) (*Design, error) {
	cons = cons.withDefaults()
	stable, rho, err := StableMonodromy(modes, g)
	if err != nil {
		return nil, err
	}
	d := &Design{Gains: g, Modes: modes, SpectralRadius: rho, SettlingTime: math.Inf(1)}
	if !stable {
		return d, nil
	}
	tr, err := Simulate(plant, modes, g, cons.Ref, sim)
	if err != nil {
		return d, nil // diverged: unstable in practice, keep infeasible
	}
	info := tr.Evaluate(cons.Ref, cons.Band)
	d.Trajectory = tr
	d.SettlingTime = info.SettlingTime
	d.Settled = info.Settled
	d.MaxInput = info.PeakInput
	d.MaxRipple = tr.MaxDenseDeviationAfter(info.SettlingTime, cons.Ref)
	d.RippleOK = d.MaxRipple <= 5*cons.Band*math.Abs(cons.Ref)
	d.Performance = 1 - info.SettlingTime/cons.SettleDeadline
	d.Feasible = info.Settled && d.RippleOK &&
		(cons.UMax <= 0 || info.PeakInput <= cons.UMax+1e-9) &&
		info.SettlingTime <= cons.SettleDeadline
	return d, nil
}
