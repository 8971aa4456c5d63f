package ctrl

import (
	"math"

	"repro/internal/mat"
)

// designEval is one worker's reusable evaluation state for the holistic
// design objective: the gain buffers, the monodromy/stability workspace,
// and the holistic-feedforward linear system are allocated once and
// overwritten per candidate, so the steady-state objective call performs no
// heap allocation beyond what the underlying plan pools. Every computation
// mirrors the allocating reference path (gainsFromVectorFF +
// designObjective) operation for operation, so values are bit-identical —
// pinned by TestDesignEvalMatchesReference. A designEval is not safe for
// concurrent use; the PSO pool creates one per worker (pso.Problem.
// NewObjective), which keeps the plan's segment arena and this scratch hot
// in one worker's cache while it batch-evaluates its share of a particle
// generation.
type designEval struct {
	plan      *SimPlan
	modes     []Mode
	cons      Constraints
	perModeFF bool
	m, l      int

	g    Gains     // reused per candidate; K entries are overwritten in place
	tile []float64 // phase-1 shared-gain tiling buffer

	// Per-mode closed-loop matrices of the current candidate, built once by
	// stableMonodromy and read again by holisticFeedforward.
	mjs          []*mat.Matrix
	prodA, prodB *mat.Matrix // monodromy ping-pong
	eig          *mat.EigWorkspace

	ffA, ffB *mat.Matrix // holistic-feedforward periodic-orbit system
	lu       *mat.LUWorkspace

	skipped int // unstable candidates scored without the feedforward solve
}

func newDesignEval(plan *SimPlan, modes []Mode, cons Constraints, perModeFF bool) *designEval {
	m, l := len(modes), modes[0].D.Ad.Rows()
	n := l + 1
	dim := m*n + m
	e := &designEval{
		plan: plan, modes: modes, cons: cons, perModeFF: perModeFF, m: m, l: l,
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

// setFeedforward computes the feedforward gains of the unpacked K,
// mirroring gainsFromVectorFF. The holistic variant reads the mode matrices
// stableMonodromy built, so it must run after it.
func (e *designEval) setFeedforward() error {
	if e.perModeFF {
		// Ablation path (rare): keep the allocating per-mode solve.
		for j := 0; j < e.m; j++ {
			f, err := Feedforward(e.modes[j].D.Ad, e.modes[j].D.BTotal(), e.modes[j].D.C, e.g.K[j])
			if err != nil {
				return err
			}
			e.g.F[j] = f
		}
		return nil
	}
	return e.holisticFeedforward()
}

// holisticFeedforward solves the periodic-orbit conditions of
// HolisticFeedforward in the reused linear system, writing the gains into
// e.g.F. Matrix assembly and the LU solve run the same operations on the
// same values, so the gains are bit-identical.
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

// modeClosedLoopInto writes ModeClosedLoop's phi matrix into dst without
// allocating: dst = [[Ad + BCur*K, BPrev], [K, 0]]. The BCur*K product has
// inner dimension one, so every entry is a single multiply-add exactly like
// the Mul/Add reference.
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

// stableMonodromy is StableMonodromy on the reused buffers: the same
// left-multiplied product chain and the same eigenvalue iteration, without
// the per-call matrices. It leaves each mode's closed-loop matrix in e.mjs.
func (e *designEval) stableMonodromy() (bool, float64, error) {
	e.prodA.SetIdentity()
	cur, buf := e.prodA, e.prodB
	for j := range e.modes {
		modeClosedLoopInto(e.mjs[j], e.modes[j], e.g.K[j])
		e.mjs[j].MulTo(buf, cur)
		cur, buf = buf, cur
	}
	rho, err := e.eig.SpectralRadius(cur)
	if err != nil {
		return false, 0, err
	}
	return rho < 1, rho, nil
}

// cost evaluates the full per-mode decision vector under the pso cutoff
// contract: below cutoff it equals the reference designObjective over
// gainsFromVectorFF bit for bit, otherwise it is some value >= cutoff.
//
// Stability comes first because it needs only K. The exact cost of an
// unstable candidate is 1e6 when the feedforward system is singular and
// 1e3·(1+ρ) otherwise, so once the cutoff is at most the smaller of the
// two, the candidate loses whichever it is and the feedforward solve is
// skipped. An eig error or a NaN ρ scores 1e6 whatever the feedforward.
func (e *designEval) cost(x []float64, cutoff float64) float64 {
	e.setK(x)
	stable, rho, err := e.stableMonodromy()
	if err != nil || math.IsNaN(rho) {
		return 1e6
	}
	if !stable && cutoff <= min(1e6, 1e3*(1+rho)) {
		e.skipped++
		return 1e3 * (1 + rho)
	}
	if err := e.setFeedforward(); err != nil {
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
