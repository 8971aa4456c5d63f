package pso

import (
	"math"
	"testing"
)

func sphere(x []float64, _ float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64, _ float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func bounds(d int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, d)
	u := make([]float64, d)
	for i := range l {
		l[i], u[i] = lo, hi
	}
	return l, u
}

func TestValidate(t *testing.T) {
	l, u := bounds(2, -1, 1)
	good := Problem{Dim: 2, Lower: l, Upper: u, Objective: sphere}
	if err := good.Validate(); err != nil {
		t.Errorf("good problem rejected: %v", err)
	}
	cases := []Problem{
		{Dim: 0, Lower: l, Upper: u, Objective: sphere},
		{Dim: 3, Lower: l, Upper: u, Objective: sphere},
		{Dim: 2, Lower: u, Upper: l, Objective: sphere},
		{Dim: 2, Lower: l, Upper: u},
	}
	for i, c := range cases {
		if c.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestMinimizeSphere(t *testing.T) {
	l, u := bounds(4, -5, 5)
	res, err := Minimize(Problem{Dim: 4, Lower: l, Upper: u, Objective: sphere}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 1e-4 {
		t.Errorf("sphere minimum %g not reached: x=%v", res.Value, res.X)
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	l, u := bounds(2, -2, 2)
	res, err := Minimize(Problem{Dim: 2, Lower: l, Upper: u, Objective: rosenbrock},
		Options{Particles: 60, Iterations: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 1e-2 {
		t.Errorf("rosenbrock value %g too high: x=%v", res.Value, res.X)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	l, u := bounds(3, -3, 3)
	p := Problem{Dim: 3, Lower: l, Upper: u, Objective: sphere}
	r1, err := Minimize(p, Options{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Minimize(p, Options{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r2.Value {
		t.Errorf("same seed, different results: %g vs %g", r1.Value, r2.Value)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Errorf("position %d differs: %g vs %g", i, r1.X[i], r2.X[i])
		}
	}
}

func TestSeedsWarmStart(t *testing.T) {
	// With an exact seed at the optimum, the result can never be worse.
	l, u := bounds(2, -10, 10)
	p := Problem{Dim: 2, Lower: l, Upper: u, Objective: func(x []float64, cutoff float64) float64 {
		return sphere([]float64{x[0] - 3, x[1] + 2}, cutoff)
	}}
	res, err := Minimize(p, Options{Seeds: [][]float64{{3, -2}}, Iterations: 5, Particles: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 1e-12 {
		t.Errorf("seeded optimum lost: %g at %v", res.Value, res.X)
	}
}

func TestSeedDimensionMismatch(t *testing.T) {
	l, u := bounds(2, -1, 1)
	_, err := Minimize(Problem{Dim: 2, Lower: l, Upper: u, Objective: sphere},
		Options{Seeds: [][]float64{{1}}})
	if err == nil {
		t.Error("bad seed dimension accepted")
	}
}

func TestBoundsRespected(t *testing.T) {
	l, u := bounds(2, 1, 2) // optimum of sphere is outside the box
	res, err := Minimize(Problem{Dim: 2, Lower: l, Upper: u, Objective: sphere}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range res.X {
		if x < l[i]-1e-12 || x > u[i]+1e-12 {
			t.Errorf("x[%d] = %g escapes [%g,%g]", i, x, l[i], u[i])
		}
	}
	// Optimum on the corner (1,1).
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("constrained optimum not at corner: %v", res.X)
	}
}

func TestStallLimitStopsEarly(t *testing.T) {
	l, u := bounds(2, -1, 1)
	res, err := Minimize(Problem{Dim: 2, Lower: l, Upper: u, Objective: func([]float64, float64) float64 { return 1 }},
		Options{Iterations: 500, StallLimit: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 500 {
		t.Errorf("stall limit ignored: ran %d iterations", res.Iterations)
	}
}

func TestEvaluationCount(t *testing.T) {
	l, u := bounds(1, -1, 1)
	res, err := Minimize(Problem{Dim: 1, Lower: l, Upper: u, Objective: sphere},
		Options{Particles: 10, Iterations: 7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 10*(7+1) {
		t.Errorf("evaluations = %d, want 80", res.Evaluations)
	}
}
