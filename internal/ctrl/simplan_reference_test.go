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

// This file keeps the per-step simulation loop as the oracle of the span
// kernel: SimPlan.run steps whole segment lists with its state in locals
// and hands each span's dense samples to one sink, and it must reproduce
// the loop below — one call per segment, one observer call per dense
// sample — bit for bit.

// stepState is the oracle's stepping state: the state vectors ping-pong
// through the cur index.
type stepState struct {
	tr   *Trajectory
	acc  *metricsAcc
	cRow []float64
	xs   [2][]float64 // xs[cur] is the current state
	cur  int
	t    float64
}

// step advances the state over one segment under input u and emits the
// dense sample at the segment end.
func (rs *stepState) step(seg *segment, u float64) {
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

// dense folds one dense sample into the statistics: the per-sample form of
// denseSpan.
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

// stepRun is the oracle of SimPlan.run: the same contract, one segment and
// one dense sample at a time.
func stepRun(p *SimPlan, g Gains, r float64, tr *Trajectory, acc *metricsAcc) error {
	if err := g.Validate(p.m, p.l); err != nil {
		return err
	}
	rs := stepState{tr: tr, acc: acc, cRow: p.cRow, xs: [2][]float64{make([]float64, p.l), make([]float64, p.l)}}
	if p.x0 != nil {
		copy(rs.xs[0], p.x0)
	}
	kRows := make([][]float64, p.m)
	for j := range kRows {
		kRows[j] = g.K[j].Row(0)
	}
	uHeld := p.uHeld0

	y := dotVec(p.cRow, rs.xs[rs.cur])
	if tr != nil {
		tr.Dense = append(tr.Dense, lti.Sample{T: rs.t, Y: y})
	} else if acc != nil {
		acc.dense(rs.t, y)
	}
	for i := range p.gap {
		rs.step(&p.gap[i], uHeld)
	}
	j := 0
	for rs.t < p.horizon {
		x := rs.xs[rs.cur]
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

// spanCase is one simulation the oracle comparison runs.
type spanCase struct {
	name string
	plan *SimPlan
	g    Gains
	r    float64
}

// newSpanCase builds a random plan on a perturbed plant of the given order
// (1 to 3) with a random output row, nModes modes, an optional initial gap, initial state and
// held input, and gains gainScale times the periodic LQR design (random
// rows where LQR fails), perturbed when the seed is odd.
func newSpanCase(order, nModes int, seed int64, gainScale float64, gap, x0 bool, uHeld float64) (spanCase, error) {
	rng := rand.New(rand.NewSource(seed))
	var a [][]float64
	switch order {
	case 1:
		a = [][]float64{{-2}}
	case 2:
		a = [][]float64{{0, 1}, {-4, -1.2}}
	default:
		order = 3
		a = [][]float64{{0, 1, 0}, {0, 0, 1}, {-2, -3, -1.5}}
	}
	for i := range a {
		for j := range a[i] {
			a[i][j] += 0.5 * rng.NormFloat64()
		}
	}
	b := make([]float64, order)
	b[order-1] = 1 + rng.Float64()
	c := make([]float64, order)
	for i := range c {
		c[i] = 0.5 * rng.NormFloat64()
	}
	c[0] = 1
	plant := &lti.System{A: mat.NewFromRows(a), B: mat.ColVec(b...), C: mat.RowVec(c...)}

	as := sched.AppSchedule{Name: "span", M: nModes}
	for j := 0; j < nModes; j++ {
		h := 5e-3 + 25e-3*rng.Float64()
		as.Periods = append(as.Periods, h)
		as.Delays = append(as.Delays, h*(0.1+0.9*rng.Float64()))
	}
	modes, err := ModesFromSchedule(plant, as)
	if err != nil {
		return spanCase{}, err
	}
	opt := SimOptions{Horizon: 0.5 + rng.Float64(), UHeld0: uHeld}
	if gap {
		opt.InitialGap = 20e-3 * rng.Float64()
	}
	if x0 {
		xs := make([]float64, order)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		opt.X0 = mat.ColVec(xs...)
	}
	plan, err := CompileSimPlan(plant, modes, opt)
	if err != nil {
		return spanCase{}, err
	}

	ks, err := PeriodicLQR(modes, 1, 1e-2)
	if err != nil {
		ks = make([]*mat.Matrix, nModes)
		for j := range ks {
			row := make([]float64, order)
			for s := range row {
				row[s] = rng.NormFloat64()
			}
			ks[j] = mat.RowVec(row...)
		}
	}
	fs, err := HolisticFeedforward(modes, ks)
	if err != nil {
		fs = make([]float64, nModes)
		for j := range fs {
			fs[j] = rng.NormFloat64()
		}
	}
	g := Gains{K: make([]*mat.Matrix, nModes), F: make([]float64, nModes)}
	for j := range ks {
		k := ks[j].Scale(gainScale)
		if seed%2 != 0 {
			for s := 0; s < order; s++ {
				k.Set(0, s, k.At(0, s)*(1+0.3*rng.NormFloat64()))
			}
		}
		g.K[j] = k
		g.F[j] = fs[j] * gainScale
	}
	r := 0.2 + rng.Float64()
	name := fmt.Sprintf("order%d/m%d/seed%d/scale%g/gap%v/x0%v/uheld%g", order, nModes, seed, gainScale, gap, x0, uHeld)
	return spanCase{name: name, plan: plan, g: g, r: r}, nil
}

// sameBits reports whether two values print identically with %#v, which
// for floats means the same shortest round-trip form: equal bits up to
// NaN payloads, and signed zeros kept apart.
func sameBits(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// firstBitDiff returns the first index where a and b differ in bits, -1 if
// they are identical (lengths included).
func firstBitDiff(a, b []float64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// checkSpanCase compares the span kernel with the step oracle on one case:
// every bit of Simulate's trajectory, of Metrics, and of the streaming
// accumulator — stop point and bound included — under a ladder of cutoffs.
// It returns how many of the cutoffs stopped the run early.
func checkSpanCase(c spanCase) (cuts int, err error) {
	p, g, r := c.plan, c.g, c.r
	var want Trajectory
	werr := stepRun(p, g, r, &want, nil)
	got, gerr := p.Simulate(g, r)
	if werr != gerr {
		return 0, fmt.Errorf("Simulate error %v, oracle %v", gerr, werr)
	}
	if werr == nil {
		dt, dy := make([]float64, 0, len(want.Dense)), make([]float64, 0, len(want.Dense))
		for _, s := range want.Dense {
			dt, dy = append(dt, s.T), append(dy, s.Y)
		}
		gt, gy := make([]float64, 0, len(got.Dense)), make([]float64, 0, len(got.Dense))
		for _, s := range got.Dense {
			gt, gy = append(gt, s.T), append(gy, s.Y)
		}
		for _, f := range []struct {
			name      string
			got, want []float64
		}{
			{"Dense.T", gt, dt}, {"Dense.Y", gy, dy},
			{"Times", got.Times, want.Times}, {"Outputs", got.Outputs, want.Outputs}, {"Inputs", got.Inputs, want.Inputs},
		} {
			if i := firstBitDiff(f.got, f.want); i >= 0 {
				return 0, fmt.Errorf("%s differs at %d (len %d, oracle %d)", f.name, i, len(f.got), len(f.want))
			}
		}
	}

	band := 0.9 * lti.SettlingBand
	violFrom := p.Horizon() / 2
	wacc := p.newMetricsAcc(r, band, violFrom, band, math.Inf(1))
	werr = stepRun(p, g, r, nil, &wacc)
	gm, gerr := p.Metrics(g, r, band, violFrom, band)
	if werr != gerr {
		return 0, fmt.Errorf("Metrics error %v, oracle %v", gerr, werr)
	}
	if werr == nil && !sameBits(gm, wacc.finalize()) {
		return 0, fmt.Errorf("Metrics %+v, oracle %+v", gm, wacc.finalize())
	}

	h := p.Horizon()
	ladder := []float64{math.Inf(1), 0, 0.01 * h, 0.1 * h, 0.3 * h, h, 1.5 * h, 2 * h,
		wacc.lb, math.Nextafter(wacc.lb, math.Inf(-1)), math.Nextafter(wacc.lb, math.Inf(1)), 0.5 * wacc.lb}
	for _, cutoff := range ladder {
		wa := p.newMetricsAcc(r, band, violFrom, band, cutoff)
		ga := wa
		werr := stepRun(p, g, r, nil, &wa)
		gerr := p.run(g, r, nil, &ga)
		if werr != gerr {
			return cuts, fmt.Errorf("cutoff %v: run error %v, oracle %v", cutoff, gerr, werr)
		}
		if !sameBits(ga, wa) {
			return cuts, fmt.Errorf("cutoff %v: accumulator\n %#v\noracle\n %#v", cutoff, ga, wa)
		}
		if werr == errCutoff {
			cuts++
		}
	}
	return cuts, nil
}

// TestSimPlanMatchesStepOracle pins the span kernel to the per-step loop on
// plants of order 1, 2 and 3 (the case study only has order 2, so this is
// what covers the generic body), with stabilizing, weak, zero and diverging
// gains, with and without an initial gap, initial state and held input.
func TestSimPlanMatchesStepOracle(t *testing.T) {
	scales := []float64{1, 0.3, 0, -1, 20, 1e6}
	var cases, diverged, cuts int
	seed := int64(0)
	for order := 1; order <= 3; order++ {
		for nModes := 1; nModes <= 3; nModes++ {
			for _, scale := range scales {
				seed++
				gap, x0 := seed%2 == 0, seed%3 == 0
				uHeld := 0.0
				if seed%4 == 1 {
					uHeld = 0.5
				}
				c, err := newSpanCase(order, nModes, seed, scale, gap, x0, uHeld)
				if err != nil {
					t.Fatalf("order %d m %d seed %d: %v", order, nModes, seed, err)
				}
				n, err := checkSpanCase(c)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				cases++
				cuts += n
				if _, err := c.plan.Simulate(c.g, c.r); err == errDiverged {
					diverged++
				}
			}
		}
	}
	t.Logf("%d cases: %d diverged, %d cut runs", cases, diverged, cuts)
	if diverged == 0 || cuts == 0 {
		t.Errorf("%d cases miss a branch: %d diverged, %d cut runs", cases, diverged, cuts)
	}
}

// FuzzSimPlanSpan: for any plant order, mode count, seed, gain scale and
// initial conditions, the span kernel matches the step oracle bit for bit.
func FuzzSimPlanSpan(f *testing.F) {
	f.Add(uint8(2), uint8(2), int64(1), 1.0, true, false, 0.0)
	f.Add(uint8(3), uint8(1), int64(4), 0.3, false, true, 0.5)
	f.Add(uint8(1), uint8(3), int64(7), 1e6, true, true, -1.0)
	f.Fuzz(func(t *testing.T, order, nModes uint8, seed int64, scale float64, gap, x0 bool, uHeld float64) {
		c, err := newSpanCase(1+int(order%3), 1+int(nModes%3), seed, scale, gap, x0, uHeld)
		if err != nil {
			t.Skip(err)
		}
		if _, err := checkSpanCase(c); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	})
}
