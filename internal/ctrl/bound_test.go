package ctrl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/race"
	"repro/internal/sched"
)

// boundTrace replays the recorded run of g through the streaming
// accumulator in run's order — each sampling instant right after the dense
// sample at its time — and returns the score lower bound after every
// instant together with the finished run's metrics.
func boundTrace(plan *SimPlan, g Gains, cons Constraints) ([]float64, SimMetrics, error) {
	tr, err := plan.Simulate(g, cons.Ref)
	if err != nil {
		return nil, SimMetrics{}, err
	}
	if end := tr.Dense[len(tr.Dense)-1].T; end != plan.finalT {
		return nil, SimMetrics{}, fmt.Errorf("last dense sample at %v, plan's replayed end time %v", end, plan.finalT)
	}
	acc := plan.newCostAcc(cons, math.Inf(1))
	d := 0
	feed := func(upTo float64) {
		for ; d < len(tr.Dense) && tr.Dense[d].T <= upTo; d++ {
			acc.dense(tr.Dense[d].T, tr.Dense[d].Y)
		}
	}
	lbs := make([]float64, 0, len(tr.Times))
	for k, t := range tr.Times {
		feed(t)
		acc.instant(t, tr.Outputs[k], tr.Inputs[k])
		lbs = append(lbs, acc.lb)
	}
	feed(math.Inf(1))
	return lbs, acc.finalize(), nil
}

// BoundCoverage counts what checked candidates exercised.
type BoundCoverage struct {
	Candidates int
	Instants   int // sampling instants whose bound was checked
	Settled    int // candidates whose exact run settled
	Unsettled  int // simulated candidates that did not settle
	Saturated  int // simulated candidates whose peak input exceeds UMax
	Cut        int // candidates some finite cutoff stopped early
}

// Add returns the sum of two coverages.
func (c BoundCoverage) Add(o BoundCoverage) BoundCoverage {
	return BoundCoverage{c.Candidates + o.Candidates, c.Instants + o.Instants,
		c.Settled + o.Settled, c.Unsettled + o.Unsettled, c.Saturated + o.Saturated, c.Cut + o.Cut}
}

// checkDesignBound evaluates candidate x and checks the early exit of the
// design cost against its exact value:
//
//   - at every sampling instant of a simulated candidate the bound is <=
//     the exact monodromyScore, and it never falls;
//   - eval.cost returns the exact bits below its cutoff and a value >=
//     the cutoff otherwise, at cutoff = exact, one ulp either side, +Inf,
//     and at bounds the run reaches on the way.
func checkDesignBound(eval *designEval, x []float64, cov *BoundCoverage) error {
	cov.Candidates++
	exact := eval.cost(x, math.Inf(1))
	cutoffs := []float64{exact, math.Nextafter(exact, math.Inf(1)), math.Nextafter(exact, math.Inf(-1)), math.Inf(1), 0}

	g, err := gainsFromVector(x, eval.modes)
	if err == nil {
		if ref := designObjective(eval.plan, eval.modes, g, eval.cons); math.Float64bits(ref) != math.Float64bits(exact) {
			return fmt.Errorf("x=%v: cost %v, reference %v", x, exact, ref)
		}
		if stable, _, serr := StableMonodromy(eval.modes, g); serr == nil && stable {
			lbs, met, err := boundTrace(eval.plan, g, eval.cons)
			if err == nil {
				band := 0.9 * eval.cons.Band
				if want, _ := eval.plan.Metrics(g, eval.cons.Ref, band, eval.plan.Horizon()/2, band); met != want {
					return fmt.Errorf("x=%v: replayed metrics %+v, streamed %+v", x, met, want)
				}
				for k, lb := range lbs {
					if !(lb <= exact) {
						return fmt.Errorf("x=%v: bound %v at instant %d exceeds exact score %v", x, lb, k, exact)
					}
					if k > 0 && lb < lbs[k-1] {
						return fmt.Errorf("x=%v: bound falls from %v to %v at instant %d", x, lbs[k-1], lb, k)
					}
				}
				cov.Instants += len(lbs)
				if met.Settled {
					cov.Settled++
				} else {
					cov.Unsettled++
				}
				if eval.cons.UMax > 0 && met.PeakInput > eval.cons.UMax {
					cov.Saturated++
				}
				cutoffs = append(cutoffs, lbs[0], lbs[len(lbs)/4], lbs[len(lbs)/2], lbs[len(lbs)-1])
			}
		}
	}

	cut := false
	for _, c := range cutoffs {
		v := eval.cost(x, c)
		switch {
		case exact < c:
			if math.Float64bits(v) != math.Float64bits(exact) {
				return fmt.Errorf("x=%v cutoff %v: cost %v, want exact %v", x, c, v, exact)
			}
		case !(v >= c):
			return fmt.Errorf("x=%v cutoff %v: cost %v below the cutoff (exact %v)", x, c, v, exact)
		case math.Float64bits(v) != math.Float64bits(exact):
			cut = true
		}
	}
	if cut {
		cov.Cut++
	}
	return nil
}

// boundCandidates draws n decision vectors for eval's design problem the
// way the search meets them: periodic-LQR seeds jittered by 20%, the same
// seeds weakened up to 1000x (sluggish, often unsettled), points of
// DesignHolistic's default search box, and wild gains up to 1000x the box.
func boundCandidates(eval *designEval, r *rand.Rand, n int) [][]float64 {
	seeds, scale := LQRSeedGains(eval.modes)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, eval.m*eval.l)
		kind := i % 4
		if len(seeds) == 0 && kind < 2 {
			kind = 2
		}
		weak := math.Pow(10, -3*r.Float64())
		for j := range x {
			s := scale[j%eval.l]
			switch kind {
			case 0:
				x[j] = seeds[i/4%len(seeds)][j] * (1 + 0.2*r.NormFloat64())
			case 1:
				x[j] = seeds[i/4%len(seeds)][j] * weak
			case 2:
				x[j] = 4 * s * (2*r.Float64() - 1)
			default:
				x[j] = s * math.Pow(10, float64(r.Intn(6))-2) * r.NormFloat64()
			}
		}
		xs[i] = x
	}
	return xs
}

// checkDesignBounds runs checkDesignBound on n random candidates.
func checkDesignBounds(eval *designEval, seed int64, n int) (BoundCoverage, error) {
	var cov BoundCoverage
	for _, x := range boundCandidates(eval, rand.New(rand.NewSource(seed)), n) {
		if err := checkDesignBound(eval, x, &cov); err != nil {
			return cov, err
		}
	}
	return cov, nil
}

// requireCoverage fails t unless the checked candidates reached every
// branch the bound argues about.
func requireCoverage(t *testing.T, name string, cov BoundCoverage) {
	t.Helper()
	if cov.Settled == 0 || cov.Unsettled == 0 || cov.Saturated == 0 || cov.Cut == 0 {
		t.Errorf("%s: candidates miss a branch: %+v", name, cov)
	}
}

// TestDesignBoundAdmissible: the early-exit bound of the design cost is
// admissible on the objective fixture.
func TestDesignBoundAdmissible(t *testing.T) {
	plan, modes, cons := objectiveFixture(t)
	cov, err := checkDesignBounds(newDesignEval(plan, modes, cons), 5, 90)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", cov)
	requireCoverage(t, "fixture", cov)
}

// FuzzDesignBound: for any gains of the objective fixture, the bound stays
// <= the exact score at every instant and the cutoff contract holds.
func FuzzDesignBound(f *testing.F) {
	plan, modes, cons := objectiveFixture(f)
	eval := newDesignEval(plan, modes, cons)
	f.Add(-12.0, -0.5, -12.0, -0.5)
	f.Add(-1.0, 0.0, 3.0, -0.2)
	f.Fuzz(func(t *testing.T, k0, k1, k2, k3 float64) {
		var cov BoundCoverage
		if err := checkDesignBound(eval, []float64{k0, k1, k2, k3}, &cov); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPolishCutoffContract: polish returns the same point, value and
// evaluation count whether its objective honours the cutoff or not — for
// a staircase that returns the cutoff plus junk once it loses (so ties and
// cuts are common), and for the design cost from the fixture's LQR seeds.
func TestPolishCutoffContract(t *testing.T) {
	same := func(name string, x0, lower, upper []float64, exact, cut func([]float64, float64) float64) {
		t.Helper()
		v0 := exact(x0, math.Inf(1))
		wx, wv, we := polish(x0, v0, lower, upper, exact)
		gx, gv, ge := polish(x0, v0, lower, upper, cut)
		if math.Float64bits(gv) != math.Float64bits(wv) || ge != we {
			t.Fatalf("%s: cut polish (%v, %d evals), exact (%v, %d evals)", name, gv, ge, wv, we)
		}
		for j := range wx {
			if math.Float64bits(gx[j]) != math.Float64bits(wx[j]) {
				t.Fatalf("%s: x[%d] = %v, exact polish %v", name, j, gx[j], wx[j])
			}
		}
	}

	stairs := func(x []float64, _ float64) float64 {
		return math.Floor(16*((x[0]-0.3)*(x[0]-0.3)+math.Abs(x[1]))) / 16
	}
	cuts := 0
	junk := func(x []float64, cutoff float64) float64 {
		if v := stairs(x, cutoff); v < cutoff {
			return v
		}
		cuts++
		return cutoff + float64(cuts%3)
	}
	same("staircase", []float64{-1, 1}, []float64{-2, -2}, []float64{2, 2}, stairs, junk)
	if cuts == 0 {
		t.Fatal("no staircase probe was cut; the test exercises nothing")
	}

	plan, modes, cons := objectiveFixture(t)
	eval := newDesignEval(plan, modes, cons)
	seeds, scale := LQRSeedGains(modes)
	lower, upper := make([]float64, 4), make([]float64, 4)
	for i := range lower {
		lower[i], upper[i] = -4*scale[i%2], 4*scale[i%2]
	}
	exact := func(x []float64, _ float64) float64 { return eval.cost(x, math.Inf(1)) }
	for i, x0 := range seeds {
		same(fmt.Sprintf("design seed %d", i), x0, lower, upper, exact, eval.cost)
	}
}

// TestDesignHolisticMatchesRecorded pins two complete designs bit for bit,
// evaluation count included, to values recorded with exact (never cut)
// objective evaluation: the cutoff changes how long losing candidates
// simulate, never a decision, and cut calls still count. The spectral
// radius, peak input, performance and verdicts were recorded before the
// final evaluation moved onto the search's workspace and streamed metrics.
func TestDesignHolisticMatchesRecorded(t *testing.T) {
	for _, c := range []struct {
		s      sched.Schedule
		evals  int
		settle uint64
		k, f   []uint64 // per mode: K row, then F

		rho, maxU, perf   uint64
		settled, feasible bool
	}{
		{sched.Schedule{2, 2, 2}, 304, 0x3f87215c711a1e9e,
			[]uint64{0xc052fd3f83289ec0, 0xbfd3c69c98bc6fd2, 0xc06d858b3649b24e, 0xbff3ee818247bc86},
			[]uint64{0x4052fd3f83289e1f, 0x406d858b3649b263},
			0x3fd288235ffefac0, 0x40479e08f83af51c, 0x3fe7f7f8ca8198ec, true, true},
		{sched.Schedule{3, 1, 2}, 384, 0x3f887987ab5a8c44,
			[]uint64{0xc0727164d4640b70, 0xc0003f8c862b0395, 0xc0686dba10a987c9, 0xbfeda8c38b8d41ac, 0xc063c1d4379e1220, 0xbfeb22a95ce67c33},
			[]uint64{0x40727164d4640b09, 0x40686dba10a988bc, 0x4063c1d4379e11fe},
			0x3fd171e1fe25c5a2, 0x404d823aed6cde75, 0x3fe7807800f25668, true, true},
	} {
		der, err := sched.Derive(paperTimings(), c.s)
		if err != nil {
			t.Fatal(err)
		}
		var opt DesignOptions
		opt.Swarm.Particles = 8
		opt.Swarm.Iterations = 8
		d, err := DesignHolistic(servo(), der[0], Constraints{Ref: 0.2, UMax: 60, SettleDeadline: 45e-3}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d.Evaluations != c.evals || math.Float64bits(d.SettlingTime) != c.settle {
			t.Errorf("%v: %d evaluations, settling %v; recorded %d, %v",
				c.s, d.Evaluations, d.SettlingTime, c.evals, math.Float64frombits(c.settle))
		}
		for j, k := range d.Gains.K {
			for s := 0; s < 2; s++ {
				if got := math.Float64bits(k.At(0, s)); got != c.k[2*j+s] {
					t.Errorf("%v: K%d[%d] = %#x, recorded %#x", c.s, j, s, got, c.k[2*j+s])
				}
			}
			if got := math.Float64bits(d.Gains.F[j]); got != c.f[j] {
				t.Errorf("%v: F%d = %#x, recorded %#x", c.s, j, got, c.f[j])
			}
		}
		for name, v := range map[string][2]uint64{
			"SpectralRadius": {math.Float64bits(d.SpectralRadius), c.rho},
			"MaxInput":       {math.Float64bits(d.MaxInput), c.maxU},
			"Performance":    {math.Float64bits(d.Performance), c.perf},
		} {
			if v[0] != v[1] {
				t.Errorf("%v: %s = %#x, recorded %#x", c.s, name, v[0], v[1])
			}
		}
		if d.Settled != c.settled || d.Feasible != c.feasible {
			t.Errorf("%v: settled %v, feasible %v; recorded %v, %v", c.s, d.Settled, d.Feasible, c.settled, c.feasible)
		}
	}
}

// TestDesignEvalObjectiveAllocs pins the design cost at zero steady-state
// allocations: when it runs to the end, when the cutoff stops it, when the
// saturation term of the bound stops it, and when the cutoff skips an
// unstable candidate's feedforward solve.
func TestDesignEvalObjectiveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	plan, modes, cons := objectiveFixture(t)
	eval := newDesignEval(plan, modes, cons)
	seeds, _ := LQRSeedGains(modes)
	x := seeds[len(seeds)/2]
	g, err := gainsFromVector(x, modes)
	if err != nil {
		t.Fatal(err)
	}
	lbs, _, err := boundTrace(plan, g, cons)
	if err != nil {
		t.Fatal(err)
	}
	exact := eval.objective(x)
	mid := lbs[len(lbs)/2]
	if !(mid < exact) {
		t.Fatalf("fixture bound %v does not stay below the exact cost %v; pick another seed", mid, exact)
	}
	if v := eval.cost(x, mid); v == exact {
		t.Fatalf("cutoff %v did not stop the run early", mid)
	}

	// A stable candidate that saturates at its first sampling instant: its
	// bound there, used as the cutoff, exceeds the bound without the
	// saturation term, so only that term stops the run at once.
	hot := make([]float64, len(x))
	for i := range x {
		hot[i] = 3 * x[i]
	}
	gh, err := gainsFromVector(hot, modes)
	if err != nil {
		t.Fatal(err)
	}
	hlbs, _, err := boundTrace(plan, gh, cons)
	if err != nil {
		t.Fatal(err)
	}
	free := cons
	free.UMax = 0
	flbs, _, err := boundTrace(plan, gh, free)
	if err != nil {
		t.Fatal(err)
	}
	satCut := hlbs[0]
	if !(flbs[0] < satCut) {
		t.Fatalf("fixture candidate %v: first bound %v, %v without saturation; pick another", hot, satCut, flbs[0])
	}
	if v := eval.cost(hot, satCut); math.Float64bits(v) != math.Float64bits(satCut) {
		t.Fatalf("saturation term did not stop the run at the first instant: cost %v, cutoff %v", v, satCut)
	}
	for name, c := range map[string]struct {
		x      []float64
		cutoff float64
	}{"uncut": {x, math.Inf(1)}, "cut": {x, mid}, "saturation cut": {hot, satCut}} {
		if allocs := testing.AllocsPerRun(50, func() { eval.cost(c.x, c.cutoff) }); allocs != 0 {
			t.Errorf("%s design cost allocates %v per call, want 0", name, allocs)
		}
	}

	// An unstable candidate whose cutoff makes the feedforward solve moot.
	wild := make([]float64, len(x))
	for i := range x {
		wild[i] = 100 * x[i]
	}
	if v := eval.cost(wild, math.Inf(1)); !(v >= 2e3 && v < 1e6) {
		t.Fatalf("fixture candidate %v scores %v, not an unstable one; pick another", wild, v)
	}
	before := eval.skipped
	allocs := testing.AllocsPerRun(50, func() { eval.cost(wild, 0) })
	if eval.skipped == before {
		t.Fatal("cutoff 0 did not skip the feedforward of an unstable candidate")
	}
	if allocs != 0 {
		t.Errorf("skipped design cost allocates %v per call, want 0", allocs)
	}
}
