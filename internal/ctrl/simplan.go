package ctrl

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/lti"
	"repro/internal/mat"
)

// SimPlan is a compiled closed-loop simulation: the propagation segments of
// every mode (and the initial idle gap) discretized once, so the thousands
// of objective evaluations inside one design search stop re-running matrix
// exponentials per call. A plan depends only on (plant, modes, SimOptions) —
// the gains are per-call inputs — and is safe for concurrent use: per-call
// state lives in pooled scratch buffers.
//
// The discretized segment matrices are packed into one flat []float64
// arena (stride-aware mat.Flat views), so the step loop walks contiguous
// memory instead of pointer-chasing a *mat.Matrix per step and the segment
// data of one plan stays hot in cache across the particles of a PSO
// evaluation round.
//
// Two evaluation modes run on the same core loop and therefore produce
// bit-identical dynamics: Simulate records the dense trajectory for
// reporting (Fig. 6, response dumps), Metrics streams the design-objective
// statistics without materializing any per-sample storage. The design
// objective's streaming run may also stop early, once an admissible lower
// bound on its score reaches the caller's cutoff (see metricsAcc.instant).
type SimPlan struct {
	m, l    int
	horizon float64
	finalT  float64     // time of the last dense sample, the same for every run
	gap     []segment   // initial idle-gap segments (held input applies)
	plans   [][]segment // per-mode propagation segments
	cRow    []float64
	x0      []float64 // nil: origin
	uHeld0  float64

	scratch sync.Pool // *simScratch
}

// segment is a precomputed propagation step: x <- Ad x + bd*u over dt. The
// ad/bd views alias the compiling discretizer's arena; ref carries their
// arena offsets between compilation and binding.
type segment struct {
	dt   float64
	ad   mat.Flat  // l-by-l view into the plan's flat arena
	bd   []float64 // length-l view into the arena
	held bool      // true: apply the held input; false: apply the current input
	ref  segRef
}

type simScratch struct {
	x, xNext []float64
	kFlat    []float64
	kRows    [][]float64
}

// Sentinel errors of the hot evaluation path (preallocated so the streaming
// objective stays allocation-free on the success path and cheap on failure).
var (
	errNoModes  = errors.New("ctrl: no modes to simulate")
	errDiverged = errors.New("ctrl: control input diverged to non-finite value")
	errCutoff   = errors.New("ctrl: score lower bound reached the cutoff")
)

// discretizer memoizes the ZOH discretization by step length: the gap and
// mode spans of one plan frequently share dt, and the workspace removes the
// Padé temporaries of each distinct one. Each distinct pair is appended to
// the flat arena once; segments carry offsets until bindArena resolves them
// into views (append may still move the backing array while compiling).
type discretizer struct {
	plant *lti.System
	ws    *mat.ExpmWorkspace
	memo  map[float64]segRef
	arena []float64
}

// segRef locates one discretized (Ad, bd) pair inside the arena.
type segRef struct {
	ad, bd int
}

func (d *discretizer) get(dt float64) segRef {
	if ref, ok := d.memo[dt]; ok {
		return ref
	}
	ad, bd := d.ws.ExpmIntegral(d.plant.A, d.plant.B, dt)
	ref := segRef{ad: len(d.arena)}
	d.arena = append(d.arena, ad.Flat().Data...)
	ref.bd = len(d.arena)
	d.arena = append(d.arena, bd.Col(0)...)
	d.memo[dt] = ref
	return ref
}

// span appends sub-steps covering span (each <= dtMax) to segs, exactly as
// the pre-plan simulator did per call.
func (d *discretizer) span(span, dtMax float64, held bool, segs []segment) []segment {
	if span <= 0 {
		return segs
	}
	n := int(math.Ceil(span/dtMax - 1e-12))
	if n < 1 {
		n = 1
	}
	dt := span / float64(n)
	seg := segment{dt: dt, ref: d.get(dt), held: held}
	for i := 0; i < n; i++ {
		segs = append(segs, seg)
	}
	return segs
}

// bindArena resolves every segment's arena offsets into mat.Flat views once
// the arena has reached its final size.
func bindArena(arena []float64, l int, segs []segment) {
	for i := range segs {
		s := &segs[i]
		s.ad = mat.FlatView(arena[s.ref.ad:s.ref.ad+l*l], l, l, l)
		s.bd = arena[s.ref.bd : s.ref.bd+l]
	}
}

// CompileSimPlan discretizes the closed-loop simulation of (plant, modes)
// under opt into a reusable plan. Gains are supplied per evaluation.
func CompileSimPlan(plant *lti.System, modes []Mode, opt SimOptions) (*SimPlan, error) {
	if len(modes) == 0 {
		return nil, errNoModes
	}
	if opt.Horizon <= 0 {
		return nil, fmt.Errorf("ctrl: horizon %g must be positive", opt.Horizon)
	}
	dtMax := opt.DtMax
	if dtMax <= 0 {
		dtMax = opt.Horizon / 2000
	}
	l := plant.Order()
	d := &discretizer{
		plant: plant,
		ws:    mat.NewExpmWorkspace(l + plant.B.Cols()),
		memo:  make(map[float64]segRef),
	}
	p := &SimPlan{
		m:       len(modes),
		l:       l,
		horizon: opt.Horizon,
		cRow:    plant.C.Row(0),
		uHeld0:  opt.UHeld0,
	}
	if opt.X0 != nil {
		p.x0 = opt.X0.Col(0)
	}
	if opt.InitialGap > 0 {
		p.gap = d.span(opt.InitialGap, dtMax, true, nil)
	}
	p.plans = make([][]segment, len(modes))
	for j, m := range modes {
		var segs []segment
		segs = d.span(m.D.Tau, dtMax, true, segs)
		segs = d.span(m.D.H-m.D.Tau, dtMax, false, segs)
		p.plans[j] = segs
	}
	bindArena(d.arena, l, p.gap)
	for _, segs := range p.plans {
		bindArena(d.arena, l, segs)
	}
	p.finalT = p.endTime()
	p.scratch.New = func() any {
		sc := &simScratch{
			x:     make([]float64, p.l),
			xNext: make([]float64, p.l),
			kFlat: make([]float64, p.m*p.l),
			kRows: make([][]float64, p.m),
		}
		for j := range sc.kRows {
			sc.kRows[j] = sc.kFlat[j*p.l : (j+1)*p.l]
		}
		return sc
	}
	return p, nil
}

// Horizon returns the simulated duration the plan was compiled for.
func (p *SimPlan) Horizon() float64 { return p.horizon }

// endTime replays run's clock — the same float64 additions in the same
// order, which do not depend on the gains — and returns the time of the
// last dense sample of every run that does not stop early.
func (p *SimPlan) endTime() float64 {
	t := 0.0
	for i := range p.gap {
		t += p.gap[i].dt
	}
	for j := 0; t < p.horizon; j = (j + 1) % p.m {
		for i := range p.plans[j] {
			t += p.plans[j][i].dt
		}
	}
	return t
}

func dotVec(a, b []float64) float64 {
	if len(a) == 2 {
		// Unrolled in the accumulation order of the loop below.
		s := 0.0
		s += a[0] * b[0]
		s += a[1] * b[1]
		return s
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// runState is the per-call stepping state of one plan execution. It lives on
// the caller's stack (no closure captures), with the state vectors borrowed
// from the plan's scratch pool. The current/next state buffers ping-pong
// through the cur index rather than by swapping the slice headers: the hot
// loop then writes only scalars through the state pointer, which keeps GC
// write barriers out of the per-step path.
type runState struct {
	tr   *Trajectory
	acc  *metricsAcc
	cRow []float64
	xs   [2][]float64 // state ping-pong buffers; xs[cur] is current
	cur  int
	t    float64
}

// x returns the current state vector.
func (rs *runState) x() []float64 { return rs.xs[rs.cur] }

// step advances the state over one precomputed segment under input u and
// emits the dense sample at the segment end. The fused flat kernel computes
// x' = Ad x + bd u in one contiguous pass, bit-identical to the unfused
// ApplyVec-then-axpy sequence (see mat.Flat.ApplyVecAdd).
func (rs *runState) step(seg *segment, u float64) {
	x, xNext := rs.xs[rs.cur], rs.xs[1-rs.cur]
	seg.ad.ApplyVecAdd(xNext, x, seg.bd, u)
	rs.cur = 1 - rs.cur
	rs.t += seg.dt
	y := dotVec(rs.cRow, xNext)
	if rs.tr != nil {
		rs.tr.Dense = append(rs.tr.Dense, lti.Sample{T: rs.t, Y: y})
	} else if rs.acc != nil {
		rs.acc.dense(rs.t, y)
	}
}

// run is the shared core loop: it propagates the switched closed loop and
// feeds every dense sample and sampling instant to at most one of the two
// observers (tr records, acc streams). Keeping a single loop guarantees the
// two modes see bit-identical dynamics.
func (p *SimPlan) run(g Gains, r float64, tr *Trajectory, acc *metricsAcc) error {
	if err := g.Validate(p.m, p.l); err != nil {
		return err
	}
	sc := p.scratch.Get().(*simScratch)
	defer p.scratch.Put(sc)
	rs := runState{tr: tr, acc: acc, cRow: p.cRow, xs: [2][]float64{sc.x, sc.xNext}}
	x0 := rs.x()
	for i := range x0 {
		x0[i] = 0
	}
	if p.x0 != nil {
		copy(x0, p.x0)
	}
	kRows := sc.kRows
	for j := 0; j < p.m; j++ {
		g.K[j].RowInto(0, kRows[j])
	}
	uHeld := p.uHeld0

	y := dotVec(p.cRow, rs.x())
	if tr != nil {
		tr.Dense = append(tr.Dense, lti.Sample{T: rs.t, Y: y})
	} else if acc != nil {
		acc.dense(rs.t, y)
	}

	// Initial idle gap: the reference has stepped but the next sampling
	// instant is InitialGap away; the held input keeps applying.
	for i := range p.gap {
		rs.step(&p.gap[i], uHeld)
	}

	j := 0
	for rs.t < p.horizon {
		// Sampling instant of mode j: compute the new input.
		x := rs.x()
		u := dotVec(kRows[j], x) + g.F[j]*r
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return errDiverged
		}
		yi := dotVec(p.cRow, x)
		if tr != nil {
			tr.Times = append(tr.Times, rs.t)
			tr.Outputs = append(tr.Outputs, yi)
			tr.Inputs = append(tr.Inputs, u)
		} else if acc != nil && acc.instant(rs.t, yi, u) {
			return errCutoff
		}
		segs := p.plans[j]
		for i := range segs {
			if segs[i].held {
				rs.step(&segs[i], uHeld)
			} else {
				rs.step(&segs[i], u)
			}
		}
		uHeld = u
		j = (j + 1) % p.m
	}
	return nil
}

// Simulate runs the plan with the given gains against a reference step r and
// records the dense trajectory, exactly like the package-level Simulate.
func (p *SimPlan) Simulate(g Gains, r float64) (*Trajectory, error) {
	tr := &Trajectory{}
	if err := p.run(g, r, tr, nil); err != nil {
		return nil, err
	}
	return tr, nil
}

// SimMetrics are the streaming design-objective statistics of one run: the
// exact quantities the design cost (monodromyScore) would read from the
// dense trajectory, computed on the fly.
type SimMetrics struct {
	SettlingTime float64 // sampled settling time (lti.SettlingTime semantics)
	Settled      bool
	PeakInput    float64 // max |u[k]| over the sampling instants
	PeakOutput   float64 // max y[k] over the sampling instants
	ITAE         float64 // normalized ∫ t|y-r| dt of the dense output
	// BandViolation is the fraction of dense samples with t >= the
	// compiled-in window start lying outside the band (Trajectory.
	// BandViolationFraction semantics).
	BandViolation float64
	FinalError    float64 // |y(T) - r| at the last dense sample
	// MaxDevAfterSettle is max |y(t)-r| over dense samples with t >= the
	// settling instant; meaningful only when Settled.
	MaxDevAfterSettle float64
}

// metricsAcc accumulates SimMetrics during a streaming run. Every update
// mirrors the corresponding dense-slice computation sample for sample, so
// streamed metrics are bit-identical to the recorded ones.
type metricsAcc struct {
	r         float64
	delta     float64 // settling band half-width, band*|r|
	violFrom  float64
	violDelta float64

	// Early exit: after each sampling instant lb is an admissible lower
	// bound on monodromyScore of the finished run, and the run stops once
	// it reaches cutoff (+Inf: never).
	cutoff  float64
	horizon float64
	norm    float64 // finalize's ITAE norm |r|·T²/2, known from the plan
	floor   float64 // least score of a run that ends unsettled or diverges
	lb      float64

	candT float64 // time of the current candidate settling instant
	cand  bool

	lastInstT          float64
	nInst              int
	peakOut, peakIn    float64
	itaeSum            float64
	lastDenseT         float64
	lastDenseY         float64
	nDense             int
	violTotal, violOut int
	maxDev             float64
}

func (a *metricsAcc) dense(t, y float64) {
	if a.nDense > 0 {
		dt := t - a.lastDenseT
		a.itaeSum += t * math.Abs(y-a.r) * dt
	}
	a.nDense++
	a.lastDenseT = t
	a.lastDenseY = y
	if t >= a.violFrom {
		a.violTotal++
		if math.Abs(y-a.r) > a.violDelta {
			a.violOut++
		}
	}
	if a.cand {
		if d := math.Abs(y - a.r); d > a.maxDev {
			a.maxDev = d
		}
	}
}

// instant records the sampling instant at t and reports whether the run
// can stop because its score lower bound a.lb has reached a.cutoff. The
// bound settledCost(c, h, itaeSum/norm), capped at floor, is admissible:
//
//   - c is candT while in band, else t. The run cannot end settled
//     before c: a candidate only ever moves to a later instant, and one
//     after an out-of-band instant t comes after t.
//   - itaeSum grows by terms t·|y-r|·dt that are never negative, and
//     float64 addition, division by the fixed norm and settledCost are
//     monotone, so itaeSum/norm only grows towards finalize's ITAE.
//   - A run that ends unsettled scores horizon·(1.5 + ...) >= floor, a
//     diverged one divergedScore >= floor; the penalties monodromyScore
//     adds to either branch are never negative.
//
// The bound never falls from one instant to the next, so the first
// instant where it reaches the cutoff is where the run stops.
func (a *metricsAcc) instant(t, y, u float64) bool {
	a.nInst++
	a.lastInstT = t
	if y > a.peakOut {
		a.peakOut = y
	}
	if au := math.Abs(u); au > a.peakIn {
		a.peakIn = au
	}
	if math.Abs(y-a.r) <= a.delta {
		if !a.cand {
			a.cand = true
			a.candT = t
			// The dense sample at this exact time was emitted just before
			// this instant and carries the same output value, so it seeds
			// the running max of MaxDenseDeviationAfter(candT).
			a.maxDev = math.Abs(y - a.r)
		}
	} else {
		a.cand = false
	}
	c := t
	if a.cand {
		c = a.candT
	}
	a.lb = settledCost(c, a.horizon, a.itaeSum/a.norm)
	if a.lb > a.floor {
		a.lb = a.floor
	}
	return a.lb >= a.cutoff
}

func (a *metricsAcc) finalize() SimMetrics {
	m := SimMetrics{
		PeakInput:         a.peakIn,
		PeakOutput:        a.peakOut,
		MaxDevAfterSettle: a.maxDev,
	}
	switch {
	case a.nInst == 0:
		m.SettlingTime, m.Settled = math.Inf(1), false
	case a.cand:
		m.SettlingTime, m.Settled = a.candT, true
	default:
		m.SettlingTime, m.Settled = a.lastInstT, false
	}
	if !m.Settled {
		m.MaxDevAfterSettle = 0 // tracked a candidate that later left the band
	}
	if a.nDense < 2 {
		m.ITAE = math.Inf(1)
	} else {
		T := a.lastDenseT
		norm := math.Abs(a.r) * T * T / 2
		if norm == 0 {
			m.ITAE = math.Inf(1)
		} else {
			m.ITAE = a.itaeSum / norm
		}
	}
	if a.violTotal == 0 {
		m.BandViolation = 1
	} else {
		m.BandViolation = float64(a.violOut) / float64(a.violTotal)
	}
	if a.nDense == 0 {
		m.FinalError = math.Inf(1)
	} else {
		m.FinalError = math.Abs(a.lastDenseY - a.r)
	}
	return m
}

// Metrics runs the plan with the given gains and streams the design
// statistics without recording the trajectory: band is the settling band
// fraction (the objective's tightened band), violFrom/violBand parameterize
// the band-violation window. Values equal those derived from a recorded
// Trajectory bit for bit.
func (p *SimPlan) Metrics(g Gains, r, band, violFrom, violBand float64) (SimMetrics, error) {
	acc := p.newMetricsAcc(r, band, violFrom, violBand, math.Inf(1))
	if err := p.run(g, r, nil, &acc); err != nil {
		return SimMetrics{}, err
	}
	return acc.finalize(), nil
}

// newMetricsAcc returns the accumulator of one streaming run (Metrics'
// parameters) that stops once its score lower bound reaches cutoff.
func (p *SimPlan) newMetricsAcc(r, band, violFrom, violBand, cutoff float64) metricsAcc {
	return metricsAcc{
		r:         r,
		delta:     band * math.Abs(r),
		violFrom:  violFrom,
		violDelta: violBand * math.Abs(r),
		cutoff:    cutoff,
		horizon:   p.horizon,
		norm:      math.Abs(r) * p.finalT * p.finalT / 2,
		floor:     min(1.5*p.horizon, divergedScore),
		peakOut:   math.Inf(-1),
	}
}
