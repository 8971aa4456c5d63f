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
// arena (stride-aware mat.Flat views), so the span kernel walks contiguous
// memory instead of pointer-chasing a *mat.Matrix per step and the segment
// data of one plan stays hot in cache across the particles of a PSO
// evaluation round.
//
// Two evaluation modes produce bit-identical dynamics: Simulate records
// the dense trajectory for reporting (Fig. 6, response dumps), Metrics
// streams the design-objective statistics without materializing any
// per-sample storage. Both step through the span kernel, except that a
// streaming run of a second-order plant folds its samples inside the
// step loop (stepFoldSpan), with the kernel's expressions in its order. The design
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
	ts, ys   []float64 // one span's dense samples, sized to the longest span
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
	if !(opt.Horizon > 0) || math.IsInf(opt.Horizon, 1) {
		return nil, fmt.Errorf("ctrl: horizon %g must be positive and finite", opt.Horizon)
	}
	dtMax := opt.DtMax
	if dtMax <= 0 {
		dtMax = opt.Horizon / 2000
	}
	l := plant.Order()
	if opt.X0 != nil && (opt.X0.Rows() != l || opt.X0.Cols() != 1) {
		return nil, fmt.Errorf("ctrl: initial state is %dx%d, want %dx1", opt.X0.Rows(), opt.X0.Cols(), l)
	}
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
	span := max(1, len(p.gap)) // the initial sample is a span of one
	for _, segs := range p.plans {
		span = max(span, len(segs))
	}
	p.scratch.New = func() any {
		// Every float buffer of a run shares one backing array.
		l, kl := p.l, p.m*p.l
		buf := make([]float64, 2*l+kl+2*span)
		sc := &simScratch{
			x:     buf[:l:l],
			xNext: buf[l : 2*l : 2*l],
			kFlat: buf[2*l : 2*l+kl : 2*l+kl],
			kRows: make([][]float64, p.m),
			ts:    buf[2*l+kl : 2*l+kl+span : 2*l+kl+span],
			ys:    buf[2*l+kl+span:],
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

// stepSpan advances the state x across one segment list — the initial
// gap, or one mode's held-plus-current segments — starting at clock t, and
// returns the clock at its end. Held segments apply uHeld, the others u.
// The end time and output of segment i go to ts[i] and ys[i], so the span's
// dense samples reach their sink in one call.
//
// The state ping-pongs between x and xNext through mat.Flat.ApplyVecAdd,
// so every sample is bit-identical to stepping one segment at a time.
func (p *SimPlan) stepSpan(x, xNext []float64, segs []segment, t, uHeld, u float64, ts, ys []float64) float64 {
	cur, next := x, xNext
	for i := range segs {
		seg := &segs[i]
		v := u
		if seg.held {
			v = uHeld
		}
		seg.ad.ApplyVecAdd(next, cur, seg.bd, v)
		cur, next = next, cur
		t += seg.dt
		ts[i], ys[i] = t, dotVec(p.cRow, cur)
	}
	if len(segs)%2 == 1 {
		copy(x, cur)
	}
	return t
}

// emitSpan hands the dense samples (ts[i], ys[i]) of one span to the run's
// single sink: tr records them, acc folds them into its statistics.
func emitSpan(tr *Trajectory, acc *metricsAcc, ts, ys []float64) {
	if tr != nil {
		for i, t := range ts {
			tr.Dense = append(tr.Dense, lti.Sample{T: t, Y: ys[i]})
		}
	} else if acc != nil {
		acc.denseSpan(ts, ys)
	}
}

// advance steps the state across one span and hands its dense samples to
// the run's sink. A streaming run of a second-order plant — every
// design-cost call — folds each sample into acc inside the step loop
// (stepFoldSpan); every other run steps the span into ts/ys first and
// emits it after.
func (p *SimPlan) advance(x, xNext []float64, segs []segment, t, uHeld, u float64, ts, ys []float64, tr *Trajectory, acc *metricsAcc) float64 {
	if tr == nil && acc != nil && p.l == 2 {
		return p.stepFoldSpan(x, segs, t, uHeld, u, acc)
	}
	t = p.stepSpan(x, xNext, segs, t, uHeld, u, ts, ys)
	emitSpan(tr, acc, ts[:len(segs)], ys[:len(segs)])
	return t
}

// stepFoldSpan is stepSpan on a second-order plant with denseSpan's fold
// in the same loop: each sample's output goes straight into a's statistics
// instead of through ts/ys. The step is mat.Flat.ApplyVecAdd's unrolled
// 2×2 form followed by dotVec's (0.0 starting accumulators, then s + b·u),
// and the fold is denseSpan's, so the state, the clock and every
// accumulator are bit-identical to stepSpan followed by denseSpan. run folds its initial sample before
// any span, so every sample here has a predecessor and adds its ITAE term.
func (p *SimPlan) stepFoldSpan(x []float64, segs []segment, t, uHeld, u float64, a *metricsAcc) float64 {
	if len(segs) == 0 {
		return t
	}
	x0, x1 := x[0], x[1]
	c0, c1 := p.cRow[0], p.cRow[1]
	r, violFrom, violDelta, cand := a.r, a.violFrom, a.violDelta, a.cand
	itae, lastT, y := a.itaeSum, a.lastDenseT, 0.0
	violTotal, violOut, maxDev := a.violTotal, a.violOut, a.maxDev
	for i := range segs {
		seg := &segs[i]
		v := u
		if seg.held {
			v = uHeld
		}
		d, st := seg.ad.Data, seg.ad.Stride
		s0 := 0.0
		s0 += d[0] * x0
		s0 += d[1] * x1
		s1 := 0.0
		s1 += d[st] * x0
		s1 += d[st+1] * x1
		x0 = s0 + seg.bd[0]*v
		x1 = s1 + seg.bd[1]*v
		t += seg.dt
		y = 0.0
		y += c0 * x0
		y += c1 * x1

		dt := t - lastT
		itae += t * math.Abs(y-r) * dt
		lastT = t
		if t >= violFrom {
			violTotal++
			if math.Abs(y-r) > violDelta {
				violOut++
			}
		}
		if cand {
			if d := math.Abs(y - r); d > maxDev {
				maxDev = d
			}
		}
	}
	x[0], x[1] = x0, x1
	a.itaeSum, a.lastDenseT, a.lastDenseY, a.nDense = itae, lastT, y, a.nDense+len(segs)
	a.violTotal, a.violOut, a.maxDev = violTotal, violOut, maxDev
	return t
}

// run is the shared core loop: it propagates the switched closed loop span
// by span and feeds every dense sample and sampling instant to at most one
// of the two observers (tr records, acc streams). Stepping every span
// through advance, with one set of step expressions, keeps the two modes'
// dynamics bit-identical; the per-step oracle of the tests pins it.
func (p *SimPlan) run(g Gains, r float64, tr *Trajectory, acc *metricsAcc) error {
	if err := g.Validate(p.m, p.l); err != nil {
		return err
	}
	sc := p.scratch.Get().(*simScratch)
	defer p.scratch.Put(sc)
	x, ts, ys := sc.x, sc.ts, sc.ys
	for i := range x {
		x[i] = 0
	}
	if p.x0 != nil {
		copy(x, p.x0)
	}
	kRows := sc.kRows
	for j := 0; j < p.m; j++ {
		g.K[j].RowInto(0, kRows[j])
	}
	uHeld := p.uHeld0

	t := 0.0
	ts[0], ys[0] = t, dotVec(p.cRow, x)
	emitSpan(tr, acc, ts[:1], ys[:1])

	// Initial idle gap: the reference has stepped but the next sampling
	// instant is InitialGap away; the held input keeps applying.
	t = p.advance(x, sc.xNext, p.gap, t, uHeld, uHeld, ts, ys, tr, acc)

	j := 0
	for t < p.horizon {
		// Sampling instant of mode j: compute the new input.
		u := dotVec(kRows[j], x) + g.F[j]*r
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return errDiverged
		}
		yi := dotVec(p.cRow, x)
		if tr != nil {
			tr.Times = append(tr.Times, t)
			tr.Outputs = append(tr.Outputs, yi)
			tr.Inputs = append(tr.Inputs, u)
		} else if acc != nil && acc.instant(t, yi, u) {
			return errCutoff
		}
		t = p.advance(x, sc.xNext, p.plans[j], t, uHeld, u, ts, ys, tr, acc)
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

// SimMetrics are the streaming statistics of one run that the design cost
// (monodromyScore) and the final evaluation (EvaluateDesign) read: the
// dense-trajectory metrics computed on the fly, with no trajectory stored.
type SimMetrics struct {
	// SettlingTime is the earliest sampling instant from which y[k] stays
	// in the band to the end of the run; unsettled, the last instant (+Inf
	// without one).
	SettlingTime float64
	Settled      bool
	PeakInput    float64 // max |u[k]| over the sampling instants
	PeakOutput   float64 // max y[k] over the sampling instants
	ITAE         float64 // normalized ∫ t|y-r| dt of the dense output
	// BandViolation is the fraction of dense samples with t >= the
	// window start lying outside the band (1 for an empty window).
	BandViolation float64
	FinalError    float64 // |y(T) - r| at the last dense sample
	// MaxDevAfterSettle is max |y(t)-r| over dense samples with t >= the
	// settling instant when Settled, and 0 otherwise.
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
	cutoff    float64
	horizon   float64
	norm      float64 // finalize's ITAE norm |r|·T²/2, known from the plan
	unsettled float64 // 1.5·horizon: least score of an unsettled run before penalties
	uMax      float64 // saturation limit the score penalizes; <= 0: none
	lb        float64

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

// denseSpan folds one span's dense samples (ts[i], ys[i]) into the
// statistics. The accumulators live in locals for the span and are written
// back once, before the next instant; each sample's update is the same
// float64 expression as in a per-sample fold, so the sums are bit-identical.
// The settling candidate cannot change inside a span (only instant moves
// it), so a.cand is read once.
func (a *metricsAcc) denseSpan(ts, ys []float64) {
	if len(ts) == 0 {
		return
	}
	r, violFrom, violDelta, cand := a.r, a.violFrom, a.violDelta, a.cand
	itae, lastT, n := a.itaeSum, a.lastDenseT, a.nDense
	violTotal, violOut, maxDev := a.violTotal, a.violOut, a.maxDev
	for i, t := range ts {
		y := ys[i]
		if n > 0 {
			dt := t - lastT
			itae += t * math.Abs(y-r) * dt
		}
		n++
		lastT = t
		if t >= violFrom {
			violTotal++
			if math.Abs(y-r) > violDelta {
				violOut++
			}
		}
		if cand {
			if d := math.Abs(y - r); d > maxDev {
				maxDev = d
			}
		}
	}
	a.itaeSum, a.lastDenseT, a.lastDenseY, a.nDense = itae, lastT, ys[len(ys)-1], n
	a.violTotal, a.violOut, a.maxDev = violTotal, violOut, maxDev
}

// instant records the sampling instant at t and reports whether the run
// can stop because its score lower bound a.lb has reached a.cutoff. The
// bound
//
//	min(min(settledCost(c, h, itaeSum/norm), 1.5·h) + saturation, 1e5)
//
// is admissible, where the saturation term is saturationCost's penalty of
// peakIn, added only once peakIn exceeds uMax:
//
//   - c is candT while in band, else t. The run cannot end settled
//     before c: a candidate only ever moves to a later instant, and one
//     after an out-of-band instant t comes after t.
//   - itaeSum grows by terms t·|y-r|·dt that are never negative, and
//     float64 addition, division by the fixed norm and settledCost are
//     monotone, so itaeSum/norm only grows towards finalize's ITAE.
//   - A run that ends unsettled scores horizon·(1.5 + ...) >= 1.5·h; the
//     ripple penalty monodromyScore adds to a settled run is never
//     negative.
//   - peakIn only grows, and so does its penalty; monodromyScore adds the
//     same saturationCost term, of the final peak, to the settled and the
//     unsettled score alike.
//   - A diverged run scores a flat divergedScore (1e5) with no penalty,
//     hence the cap.
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
	lb := settledCost(c, a.horizon, a.itaeSum/a.norm)
	if lb > a.unsettled {
		lb = a.unsettled
	}
	if a.uMax > 0 && a.peakIn > a.uMax {
		lb = saturationCost(lb, a.peakIn, a.uMax, a.horizon)
	}
	if lb > divergedScore {
		lb = divergedScore
	}
	a.lb = lb
	return lb >= a.cutoff
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
// parameters) that stops once its score lower bound, without a saturation
// term, reaches cutoff.
func (p *SimPlan) newMetricsAcc(r, band, violFrom, violBand, cutoff float64) metricsAcc {
	return metricsAcc{
		r:         r,
		delta:     band * math.Abs(r),
		violFrom:  violFrom,
		violDelta: violBand * math.Abs(r),
		cutoff:    cutoff,
		horizon:   p.horizon,
		norm:      math.Abs(r) * p.finalT * p.finalT / 2,
		unsettled: 1.5 * p.horizon,
		peakOut:   math.Inf(-1),
	}
}

// newCostAcc returns the accumulator of one design-cost run under cons:
// the settling band tightened to 0.9·Band so the reported 2% measurement
// keeps a margin instead of riding the band edge, the band-violation
// window over the second half of the horizon, and the saturation term of
// cons.UMax in the early-exit bound.
func (p *SimPlan) newCostAcc(cons Constraints, cutoff float64) metricsAcc {
	band := 0.9 * cons.Band
	a := p.newMetricsAcc(cons.Ref, band, p.horizon/2, band, cutoff)
	a.uMax = cons.UMax
	return a
}
