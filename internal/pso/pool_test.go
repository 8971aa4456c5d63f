package pso

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/race"
)

func sphereProblem(dim int) Problem {
	lower := make([]float64, dim)
	upper := make([]float64, dim)
	for i := range lower {
		lower[i] = -5
		upper[i] = 5
	}
	return Problem{
		Dim: dim, Lower: lower, Upper: upper,
		Objective: func(x []float64, _ float64) float64 {
			s := 0.0
			for _, v := range x {
				s += v * v
			}
			return s
		},
	}
}

// TestMinimizeWorkerCountBitIdentical is the index-ordered-reduction
// contract: any worker count (serial path, pool path, pool wider than the
// governor) produces the same Result bit for bit.
func TestMinimizeWorkerCountBitIdentical(t *testing.T) {
	p := sphereProblem(4)
	base, err := Minimize(p, Options{Seed: 9, Particles: 12, Iterations: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 64} {
		got, err := Minimize(p, Options{Seed: 9, Particles: 12, Iterations: 30, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != base.Value || got.Iterations != base.Iterations || got.Evaluations != base.Evaluations {
			t.Fatalf("workers=%d: result %+v differs from serial %+v", workers, got, base)
		}
		for i := range base.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(base.X[i]) {
				t.Fatalf("workers=%d: X[%d] = %x, serial %x", workers, i, got.X[i], base.X[i])
			}
		}
	}
}

// TestMinimizeNewObjectiveInstances checks that pool workers use their own
// objective instances and still reproduce the shared-objective result.
func TestMinimizeNewObjectiveInstances(t *testing.T) {
	p := sphereProblem(3)
	var instances atomic.Int64
	p.NewObjective = func() func([]float64, float64) float64 {
		instances.Add(1)
		scratch := make([]float64, 3) // private per-instance state
		return func(x []float64, _ float64) float64 {
			copy(scratch, x)
			s := 0.0
			for _, v := range scratch {
				s += v * v
			}
			return s
		}
	}
	base, err := Minimize(sphereProblem(3), Options{Seed: 5, Particles: 10, Iterations: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Minimize(p, Options{Seed: 5, Particles: 10, Iterations: 20, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != base.Value {
		t.Fatalf("NewObjective run value %v, reference %v", got.Value, base.Value)
	}
	for i := range base.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(base.X[i]) {
			t.Fatalf("X[%d] = %x, reference %x", i, got.X[i], base.X[i])
		}
	}
}

// minimizeAllocs measures the total heap allocations of one Minimize call.
func minimizeAllocs(t *testing.T, p Problem, o Options) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := Minimize(p, o); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMinimizeSteadyStateAllocs pins the pool's zero-allocation iteration:
// growing the iteration budget by 100 must not grow the allocation count at
// all — setup allocates, the steady state does not. StallLimit is defeated
// by an objective the swarm keeps improving slowly enough... instead the
// sphere converges; use a large StallLimit default (0 = no early stop) so
// all iterations run.
func TestMinimizeSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := sphereProblem(4)
	for _, workers := range []int{1, 2} {
		short := minimizeAllocs(t, p, Options{Seed: 3, Particles: 8, Iterations: 10, Workers: workers})
		long := minimizeAllocs(t, p, Options{Seed: 3, Particles: 8, Iterations: 110, Workers: workers})
		if delta := long - short; delta != 0 {
			t.Errorf("workers=%d: %g extra allocs over 100 extra iterations (want 0)", workers, delta)
		}
	}
}

// TestMinimizeCutoffContract pins the cutoff contract from the caller's
// side: an objective that stops early — returning cutoff plus arbitrary
// junk whenever its true value is >= cutoff — must leave every swarm
// decision unchanged. The staircase objective makes exact ties with the
// personal bests common, so the strictness of the comparisons is exercised
// too.
func TestMinimizeCutoffContract(t *testing.T) {
	stairs := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += (v - 1) * (v - 1)
		}
		return math.Floor(8*s) / 8
	}
	p := sphereProblem(3)
	p.Objective = func(x []float64, _ float64) float64 { return stairs(x) }
	var cut, junk atomic.Int64
	q := p
	q.Objective = func(x []float64, cutoff float64) float64 {
		v := stairs(x)
		if v >= cutoff {
			cut.Add(1)
			return cutoff + float64(junk.Add(1)%3) // 0, 1 or 2 above the cutoff
		}
		return v
	}
	for _, workers := range []int{1, 4} {
		o := Options{Seed: 11, Particles: 10, Iterations: 40, StallLimit: 15, Workers: workers}
		want, err := Minimize(p, o)
		if err != nil {
			t.Fatal(err)
		}
		cut.Store(0)
		got, err := Minimize(q, o)
		if err != nil {
			t.Fatal(err)
		}
		if cut.Load() == 0 {
			t.Fatalf("workers=%d: no call was cut; the test exercises nothing", workers)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
			got.Iterations != want.Iterations || got.Evaluations != want.Evaluations {
			t.Fatalf("workers=%d: cut run %+v, exact run %+v", workers, got, want)
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("workers=%d: X[%d] = %x, exact run %x", workers, i, got.X[i], want.X[i])
			}
		}
	}
}

// TestMinimizeCutoffs pins what Minimize passes: +Inf for the initial
// round, and each particle's personal best after that.
func TestMinimizeCutoffs(t *testing.T) {
	p := sphereProblem(2)
	sphere := p.Objective
	var calls [][2]float64 // (value, cutoff) per call, in serial call order
	p.Objective = func(x []float64, cutoff float64) float64 {
		calls = append(calls, [2]float64{sphere(x, cutoff), cutoff})
		return sphere(x, cutoff)
	}
	const n = 4
	if _, err := Minimize(p, Options{Seed: 2, Particles: n, Iterations: 5, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	pbest := make([]float64, n)
	for k, vc := range calls {
		i := k % n
		if k < n {
			if !math.IsInf(vc[1], 1) {
				t.Fatalf("initial call %d got cutoff %v, want +Inf", k, vc[1])
			}
			pbest[i] = vc[0]
			continue
		}
		if vc[1] != pbest[i] {
			t.Fatalf("call %d (particle %d) got cutoff %v, want personal best %v", k, i, vc[1], pbest[i])
		}
		pbest[i] = math.Min(pbest[i], vc[0])
	}
}
