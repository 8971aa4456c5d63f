package ctrl

import (
	"errors"
	"math"

	"repro/internal/mat"
)

// designEval is one worker's reusable evaluation state for a schedule's
// controller design: the gain buffers, the monodromy/stability workspace,
// and the holistic-feedforward linear system are allocated once and
// overwritten per candidate, so the steady-state objective call performs no
// heap allocation beyond what the underlying plan pools. It is the only
// production implementation of each mode's closed-loop matrix, of the
// monodromy stability test (Eq. 16) and of the holistic feedforward:
// the search's cost, the final evaluation of a design (evaluate) and
// HolisticFeedforward all run on it. The allocating oracles in
// design_reference_test.go pin it bit for bit. A designEval is not safe
// for concurrent use; the PSO pool creates one per worker (pso.Problem.
// NewObjective), which keeps the plan's segment arena and this scratch hot
// in one worker's cache while it batch-evaluates its share of a particle
// generation.
type designEval struct {
	plan  *SimPlan
	modes []Mode
	cons  Constraints
	m, l  int

	g    Gains     // reused per candidate; K entries are overwritten in place
	tile []float64 // phase-1 shared-gain tiling buffer

	// Per-mode closed-loop matrices of the current candidate, built once by
	// setClosedLoops and read by stability and holisticFeedforward.
	mjs          []*mat.Matrix
	prodA, prodB *mat.Matrix // monodromy ping-pong
	eig          *mat.EigWorkspace

	ffA, ffB *mat.Matrix // holistic-feedforward periodic-orbit system
	lu       *mat.LUWorkspace

	skipped int // unstable candidates scored without the feedforward solve
}

func newDesignEval(plan *SimPlan, modes []Mode, cons Constraints) *designEval {
	m, l := len(modes), modes[0].D.Ad.Rows()
	n := l + 1
	dim := m*n + m
	e := &designEval{
		plan: plan, modes: modes, cons: cons, m: m, l: l,
		g:     Gains{K: make([]*mat.Matrix, m), F: make([]float64, m)},
		tile:  make([]float64, m*l),
		mjs:   make([]*mat.Matrix, m),
		prodA: mat.New(n, n),
		prodB: mat.New(n, n),
		eig:   mat.NewEigWorkspace(n),
		ffA:   mat.New(dim, dim),
		ffB:   mat.New(dim, 1),
		lu:    mat.NewLUWorkspace(dim, 1),
	}
	for j := range e.g.K {
		e.g.K[j] = mat.New(1, l)
		e.mjs[j] = mat.New(n, n)
	}
	return e
}

// setK unpacks the feedback rows of the decision vector into the reused
// gain buffers.
func (e *designEval) setK(x []float64) {
	for j := 0; j < e.m; j++ {
		for s := 0; s < e.l; s++ {
			e.g.K[j].Set(0, s, x[j*e.l+s])
		}
	}
}

// holisticFeedforward solves HolisticFeedforward's periodic-orbit
// conditions for the closed-loop matrices in e.mjs in the reused linear
// system, writing the gains into e.g.F.
func (e *designEval) holisticFeedforward() error {
	m, l := e.m, e.l
	n := l + 1
	e.ffA.Zero()
	e.ffB.Zero()
	for j := 0; j < m; j++ {
		mj := e.mjs[j]
		next := (j + 1) % m
		bcur := e.modes[j].D.BCur
		for r := 0; r < n; r++ {
			row := j*n + r
			e.ffA.Set(row, next*n+r, 1)
			for c := 0; c < n; c++ {
				e.ffA.Set(row, j*n+c, e.ffA.At(row, j*n+c)-mj.At(r, c))
			}
			// ĝ_j = [BCur; 1]: the reference-injection column of mode j.
			gjr := 1.0
			if r < l {
				gjr = bcur.At(r, 0)
			}
			e.ffA.Set(row, m*n+j, -gjr)
		}
	}
	cRow := e.modes[0].D.C
	for j := 0; j < m; j++ {
		row := m*n + j
		for s := 0; s < l; s++ {
			e.ffA.Set(row, j*n+s, cRow.At(0, s))
		}
		e.ffB.Set(row, 0, 1)
	}
	w, err := e.lu.Solve(e.ffA, e.ffB)
	if err != nil {
		return err
	}
	for j := 0; j < m; j++ {
		e.g.F[j] = w.At(m*n+j, 0)
	}
	return nil
}

// modeClosedLoopInto writes the closed-loop transition matrix of mode md
// under feedback row k into dst, on the augmented state z = [x; u_held]:
//
//	z[k+1] = [ Ad + BCur*K   BPrev ] z[k] + [ BCur*F ] r
//	         [      K          0   ]        [    F   ]
//
// where u_held is the input actuated most recently before the sampling
// instant. The second block row records u[k] = K x[k] + F r becoming the
// held input of the next interval; phi[l][l] = 0 because the held input is
// fully replaced each interval. Only phi is built: the reference enters
// through F, which the callers handle themselves.
func modeClosedLoopInto(dst *mat.Matrix, md Mode, k *mat.Matrix) {
	l := md.D.Ad.Rows()
	ad, bcur, bprev := md.D.Ad, md.D.BCur, md.D.BPrev
	for i := 0; i < l; i++ {
		bi := bcur.At(i, 0)
		for j := 0; j < l; j++ {
			dst.Set(i, j, ad.At(i, j)+bi*k.At(0, j))
		}
		dst.Set(i, l, bprev.At(i, 0))
	}
	for j := 0; j < l; j++ {
		dst.Set(l, j, k.At(0, j))
	}
	dst.Set(l, l, 0)
}

// setClosedLoops writes each mode's closed-loop matrix under the feedback
// rows ks into e.mjs, for stability and holisticFeedforward to read.
func (e *designEval) setClosedLoops(ks []*mat.Matrix) {
	for j, md := range e.modes {
		modeClosedLoopInto(e.mjs[j], md, ks[j])
	}
}

// stability multiplies the closed-loop matrices in e.mjs into the
// monodromy Phi = M_m * ... * M_1 of one schedule period and reports
// whether its spectral radius is below one, with the radius. Phi plays the
// role of the lifted matrix A_hol of Eq. (16): its spectral radius decides
// the stability of the periodically switched closed loop.
func (e *designEval) stability() (bool, float64, error) {
	e.prodA.SetIdentity()
	cur, buf := e.prodA, e.prodB
	for _, mj := range e.mjs {
		mj.MulTo(buf, cur)
		cur, buf = buf, cur
	}
	rho, err := e.eig.SpectralRadius(cur)
	if err != nil {
		return false, 0, err
	}
	return rho < 1, rho, nil
}

// cost evaluates the full per-mode decision vector under the pso cutoff
// contract: below cutoff it is the exact design cost, otherwise some value
// >= cutoff.
//
// Stability comes first because it needs only K. The exact cost of an
// unstable candidate is 1e6 when the feedforward system is singular and
// 1e3·(1+ρ) otherwise, so once the cutoff is at most the smaller of the
// two, the candidate loses whichever it is and the feedforward solve is
// skipped. An eig error or a NaN ρ scores 1e6 whatever the feedforward.
func (e *designEval) cost(x []float64, cutoff float64) float64 {
	e.setK(x)
	e.setClosedLoops(e.g.K)
	stable, rho, err := e.stability()
	if err != nil || math.IsNaN(rho) {
		return 1e6
	}
	if !stable && cutoff <= min(1e6, 1e3*(1+rho)) {
		e.skipped++
		return 1e3 * (1 + rho)
	}
	if err := e.holisticFeedforward(); err != nil {
		return 1e6
	}
	return monodromyScore(e.plan, e.g, e.cons, stable, rho, nil, cutoff)
}

// sharedCost evaluates a single gain tiled across all modes (the phase-1
// pre-solve of DesignHolistic).
func (e *designEval) sharedCost(k []float64, cutoff float64) float64 {
	for j := 0; j < e.m; j++ {
		copy(e.tile[j*e.l:(j+1)*e.l], k)
	}
	return e.cost(e.tile, cutoff)
}

// evaluate is the definitive evaluation of the gain set g on e's plan:
// stability from the monodromy, then the settling, saturation and ripple
// metrics streamed at the reported band, and the recorded trajectory. A
// run whose input diverges is the infeasible design, as an unstable loop
// is; every other failure is an error.
func (e *designEval) evaluate(g Gains) (*Design, error) {
	if err := g.Validate(e.m, e.l); err != nil {
		return nil, err
	}
	e.setClosedLoops(g.K)
	stable, rho, err := e.stability()
	if err != nil {
		return nil, err
	}
	d := &Design{Gains: g, Modes: e.modes, SpectralRadius: rho, SettlingTime: math.Inf(1)}
	if !stable {
		return d, nil
	}
	cons := e.cons
	met, err := e.plan.Metrics(g, cons.Ref, cons.Band, e.plan.Horizon()/2, cons.Band)
	if errors.Is(err, errDiverged) {
		return d, nil
	} else if err != nil {
		return nil, err
	}
	if d.Trajectory, err = e.plan.Simulate(g, cons.Ref); err != nil {
		return nil, err
	}
	d.SettlingTime = met.SettlingTime
	d.Settled = met.Settled
	d.MaxInput = met.PeakInput
	d.MaxRipple = met.MaxDevAfterSettle
	d.RippleOK = d.MaxRipple <= 5*cons.Band*math.Abs(cons.Ref)
	d.Performance = 1 - met.SettlingTime/cons.SettleDeadline
	d.Feasible = met.Settled && d.RippleOK &&
		(cons.UMax <= 0 || met.PeakInput <= cons.UMax+1e-9) &&
		met.SettlingTime <= cons.SettleDeadline
	return d, nil
}
