package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestMulToMatchesMul requires bit-identical results from the destination
// variant: the simulation-plan compiler depends on it to keep golden tables
// unchanged.
func TestMulToMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(r, 4, 3)
		b := randomMatrix(r, 3, 5)
		if trial%3 == 0 {
			a.Set(trial%4, trial%3, 0) // exercise the zero-skip path
		}
		want := a.Mul(b)
		got := New(4, 5)
		got.Set(0, 0, 123) // stale dst content must be overwritten
		a.MulTo(got, b)
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("trial %d: MulTo[%d,%d] = %v, Mul = %v", trial, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestAddScaledToAndScaleTo(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randomMatrix(r, 3, 3)
	b := randomMatrix(r, 3, 3)
	want := a.AddScaled(-0.37, b)
	got := New(3, 3)
	a.AddScaledTo(got, -0.37, b)
	if !got.Equal(want, 0) {
		t.Error("AddScaledTo differs from AddScaled")
	}
	// Aliased accumulate: a += s*b.
	acc := a.Clone()
	acc.AddScaledTo(acc, -0.37, b)
	if !acc.Equal(want, 0) {
		t.Error("aliased AddScaledTo differs")
	}
	ws := a.Scale(2.5)
	gs := New(3, 3)
	a.ScaleTo(gs, 2.5)
	if !gs.Equal(ws, 0) {
		t.Error("ScaleTo differs from Scale")
	}
}

func TestRowIntoCopyAndSetIdentity(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := make([]float64, 3)
	m.RowInto(1, dst)
	if dst[0] != 4 || dst[1] != 5 || dst[2] != 6 {
		t.Errorf("RowInto = %v", dst)
	}
	c := New(2, 3)
	c.Copy(m)
	if !c.Equal(m, 0) {
		t.Error("Copy differs")
	}
	id := randomMatrix(rand.New(rand.NewSource(1)), 3, 3)
	id.SetIdentity()
	if !id.Equal(Identity(3), 0) {
		t.Error("SetIdentity differs from Identity")
	}
}

// TestExpmWorkspaceBitIdentical checks the workspace exponential against the
// allocating reference, including inputs large enough to trigger scaling/squaring,
// and reuse of one workspace across calls.
func TestExpmWorkspaceBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	w := NewExpmWorkspace(4)
	for trial := 0; trial < 25; trial++ {
		a := randomMatrix(r, 4, 4)
		if trial%2 == 0 {
			a = a.Scale(float64(trial)) // norms from 0 to large
		}
		want := refExpm(a)
		got := New(4, 4)
		w.ExpmTo(got, a)
		if !got.Equal(want, 0) {
			t.Fatalf("trial %d: ExpmTo differs from Expm", trial)
		}
	}
}

// TestExpmIntegralWorkspaceBitIdentical checks the workspace discretization
// pair against the allocating reference over a sweep of step lengths, as
// the plan compiler uses it.
func TestExpmIntegralWorkspaceBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randomMatrix(r, 3, 3)
	b := randomMatrix(r, 3, 1)
	w := NewExpmWorkspace(4)
	for _, dt := range []float64{1e-6, 5e-4, 0.02, 0.5, 3} {
		wantAd, wantBd := refExpmIntegral(a, b, dt)
		gotAd, gotBd := w.ExpmIntegral(a, b, dt)
		if !gotAd.Equal(wantAd, 0) || !gotBd.Equal(wantBd, 0) {
			t.Fatalf("dt=%g: workspace ExpmIntegral differs", dt)
		}
	}
}

func TestExpmWorkspaceDimensionChecks(t *testing.T) {
	w := NewExpmWorkspace(3)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch must panic")
		}
	}()
	w.ExpmTo(New(2, 2), New(2, 2))
}

// refExpm is an allocating Padé loop (Golub & Van Loan, Algorithm 11.3.1,
// q = 6), the reference ExpmTo is pinned bit-identical to.
func refExpm(a *Matrix) *Matrix {
	a.mustSquare("Expm")
	n := a.rows

	// Scale A by a power of two so that ||A/2^j||_inf <= 1/2.
	norm := a.InfNorm()
	j := 0
	if norm > 0.5 {
		j = int(math.Ceil(math.Log2(norm) + 1))
		if j < 0 {
			j = 0
		}
	}
	as := a.Scale(1 / math.Pow(2, float64(j)))

	// Diagonal Padé approximation of order q.
	const q = 6
	x := Identity(n) // running power As^k
	num := Identity(n)
	den := Identity(n)
	c := 1.0
	for k := 1; k <= q; k++ {
		c = c * float64(q-k+1) / (float64(k) * float64(2*q-k+1))
		x = as.Mul(x)
		num = num.AddScaled(c, x)
		if k%2 == 0 {
			den = den.AddScaled(c, x)
		} else {
			den = den.AddScaled(-c, x)
		}
	}
	f, err := Solve(den, num)
	if err != nil {
		// The denominator of the diagonal Padé approximant is nonsingular
		// for ||As|| <= 1/2; reaching this indicates non-finite input.
		panic("mat: Expm failed to solve Padé system: " + err.Error())
	}

	// Undo the scaling by repeated squaring.
	for k := 0; k < j; k++ {
		f = f.Mul(f)
	}
	return f
}

// refExpmIntegral is the allocating ExpmIntegral over refExpm: the
// zero-order-hold pair from the exponential of [[A, B], [0, 0]] * t.
func refExpmIntegral(a, b *Matrix, t float64) (ad, bd *Matrix) {
	a.mustSquare("ExpmIntegral")
	if b.rows != a.rows {
		panic("mat: ExpmIntegral B row count must match A")
	}
	n, m := a.rows, b.cols
	aug := New(n+m, n+m)
	aug.SetSlice(0, 0, a.Scale(t))
	aug.SetSlice(0, n, b.Scale(t))
	e := refExpm(aug)
	return e.Slice(0, n, 0, n), e.Slice(0, n, n, n+m)
}
