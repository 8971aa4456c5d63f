package poly

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// The degree, evaluation, derivative, characteristic-polynomial and
// root-finding helpers below have no production caller; they live here as
// the tests' tools for checking FromRoots and EvalMat.

// Degree returns the degree of p (0 for constants, including the zero
// polynomial).
func (p Poly) Degree() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Eval evaluates p at x using Horner's rule.
func (p Poly) Eval(x float64) float64 {
	if len(p) == 0 {
		return 0
	}
	v := p[len(p)-1]
	for i := len(p) - 2; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// EvalC evaluates p at a complex point using Horner's rule.
func (p Poly) EvalC(x complex128) complex128 {
	if len(p) == 0 {
		return 0
	}
	v := complex(p[len(p)-1], 0)
	for i := len(p) - 2; i >= 0; i-- {
		v = v*x + complex(p[i], 0)
	}
	return v
}

// Derivative returns dp/dx.
func (p Poly) Derivative() Poly {
	if len(p) <= 1 {
		return Poly{0}
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = float64(i) * p[i]
	}
	return out.trim()
}

// Companion returns the companion matrix of a monic polynomial of degree
// >= 1. If p is not monic it is normalized first. It panics on degree 0.
func (p Poly) Companion() *mat.Matrix {
	q := p.trim()
	n := q.Degree()
	if n < 1 {
		panic("poly: Companion of a constant polynomial")
	}
	lead := q[n]
	c := mat.New(n, n)
	for i := 1; i < n; i++ {
		c.Set(i, i-1, 1)
	}
	for i := 0; i < n; i++ {
		c.Set(i, n-1, -q[i]/lead)
	}
	return c
}

// Roots returns all complex roots of p, computed as the eigenvalues of the
// companion matrix. Constants have no roots.
func (p Poly) Roots() ([]complex128, error) {
	q := p.trim()
	if q.Degree() < 1 {
		return nil, nil
	}
	return mat.Eigenvalues(q.Companion())
}

// CharPoly returns the characteristic polynomial det(xI - A) of a square
// matrix using the Faddeev–LeVerrier recursion. The result is monic with
// degree equal to the matrix dimension.
func CharPoly(a *mat.Matrix) Poly {
	n := a.Rows()
	if a.Cols() != n {
		panic("poly: CharPoly requires a square matrix")
	}
	// Faddeev–LeVerrier: M_0 = I, c_n = 1;
	// M_k = A*M_{k-1} + c_{n-k+1}*I,  c_{n-k} = -trace(A*M_{k-1}... ) / k
	coeffs := make(Poly, n+1)
	coeffs[n] = 1
	m := mat.Identity(n)
	for k := 1; k <= n; k++ {
		am := a.Mul(m)
		c := -am.Trace() / float64(k)
		coeffs[n-k] = c
		m = am.Add(mat.Identity(n).Scale(c))
	}
	return coeffs
}

func TestEvalHorner(t *testing.T) {
	p := New(1, -2, 3) // 1 - 2x + 3x^2
	if got := p.Eval(2); got != 9 {
		t.Errorf("Eval(2) = %g, want 9", got)
	}
	if got := p.Eval(0); got != 1 {
		t.Errorf("Eval(0) = %g, want 1", got)
	}
	if got := New().Eval(5); got != 0 {
		t.Errorf("empty poly Eval = %g", got)
	}
}

func TestEvalC(t *testing.T) {
	p := New(1, 0, 1) // 1 + x^2, roots ±i
	if v := p.EvalC(complex(0, 1)); real(v) != 0 || imag(v) != 0 {
		t.Errorf("EvalC(i) = %v, want 0", v)
	}
}

func TestDegreeAndTrim(t *testing.T) {
	if New(1, 2, 0, 0).Degree() != 1 {
		t.Error("trailing zeros should be trimmed")
	}
	if New(5).Degree() != 0 {
		t.Error("constant degree")
	}
}

func TestMulAddScale(t *testing.T) {
	p := New(1, 1)  // 1+x
	q := New(-1, 1) // -1+x
	prod := p.Mul(q)
	want := New(-1, 0, 1) // x^2-1
	for i := range want {
		if math.Abs(prod[i]-want[i]) > 1e-15 {
			t.Errorf("Mul: got %v want %v", prod, want)
		}
	}
	sum := p.Add(q)
	if sum.Degree() != 1 || sum[0] != 0 || sum[1] != 2 {
		t.Errorf("Add: got %v", sum)
	}
	if s := p.Scale(3); s[0] != 3 || s[1] != 3 {
		t.Errorf("Scale: got %v", s)
	}
}

func TestDerivative(t *testing.T) {
	p := New(1, 2, 3) // 1+2x+3x^2 -> 2+6x
	d := p.Derivative()
	if d.Degree() != 1 || d[0] != 2 || d[1] != 6 {
		t.Errorf("Derivative: got %v", d)
	}
	if c := New(7).Derivative(); c.Degree() != 0 || c[0] != 0 {
		t.Errorf("constant derivative: %v", c)
	}
}

func TestFromRootsReal(t *testing.T) {
	p, err := FromRoots([]complex128{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
	want := []float64{-6, 11, -6, 1}
	for i, w := range want {
		if math.Abs(p[i]-w) > 1e-12 {
			t.Errorf("FromRoots coeff %d = %g, want %g", i, p[i], w)
		}
	}
}

func TestFromRootsConjugatePair(t *testing.T) {
	p, err := FromRoots([]complex128{complex(0.5, 0.3), complex(0.5, -0.3)})
	if err != nil {
		t.Fatal(err)
	}
	// (x-(0.5+0.3i))(x-(0.5-0.3i)) = x^2 - x + 0.34
	want := []float64{0.34, -1, 1}
	for i, w := range want {
		if math.Abs(p[i]-w) > 1e-12 {
			t.Errorf("coeff %d = %g, want %g", i, p[i], w)
		}
	}
}

func TestFromRootsUnpairedComplexFails(t *testing.T) {
	if _, err := FromRoots([]complex128{complex(0, 1)}); err == nil {
		t.Error("unpaired complex root must error")
	}
}

func TestCompanionRoundTrip(t *testing.T) {
	p := New(-6, 11, -6, 1)
	roots, err := p.Roots()
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{real(roots[0]), real(roots[1]), real(roots[2])}
	sort.Float64s(got)
	for i, w := range []float64{1, 2, 3} {
		if math.Abs(got[i]-w) > 1e-8 {
			t.Errorf("root %d = %g, want %g", i, got[i], w)
		}
	}
}

func TestCompanionNonMonic(t *testing.T) {
	// 2x^2 - 2 has roots ±1 after normalization.
	roots, err := New(-2, 0, 2).Roots()
	if err != nil {
		t.Fatal(err)
	}
	mags := []float64{real(roots[0]), real(roots[1])}
	sort.Float64s(mags)
	if math.Abs(mags[0]+1) > 1e-10 || math.Abs(mags[1]-1) > 1e-10 {
		t.Errorf("roots: %v", roots)
	}
}

func TestRootsOfConstant(t *testing.T) {
	r, err := New(5).Roots()
	if err != nil || r != nil {
		t.Errorf("constant roots: %v, %v", r, err)
	}
}

func TestCharPolyKnown(t *testing.T) {
	a := mat.NewFromRows([][]float64{{2, 1}, {0, 3}})
	p := CharPoly(a)
	// (x-2)(x-3) = x^2 -5x + 6
	want := []float64{6, -5, 1}
	for i, w := range want {
		if math.Abs(p[i]-w) > 1e-12 {
			t.Errorf("charpoly coeff %d = %g, want %g", i, p[i], w)
		}
	}
}

func TestEvalMatCayleyHamilton(t *testing.T) {
	// A matrix satisfies its own characteristic polynomial.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		n := 2 + r.Intn(4)
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		p := CharPoly(a)
		z := p.EvalMat(a)
		if z.MaxAbs() > 1e-8*(1+math.Pow(a.InfNorm(), float64(n))) {
			t.Errorf("Cayley–Hamilton residual %g at n=%d", z.MaxAbs(), n)
		}
	}
}

// Property: FromRoots followed by Roots recovers the root multiset.
func TestQuickFromRootsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(4)
		roots := make([]complex128, n)
		for i := range roots {
			roots[i] = complex(rr.NormFloat64(), 0)
		}
		p, err := FromRoots(roots)
		if err != nil {
			return false
		}
		got, err := p.Roots()
		if err != nil {
			return false
		}
		want := make([]float64, n)
		for i, r := range roots {
			want[i] = real(r)
		}
		gotR := make([]float64, n)
		for i, g := range got {
			if math.Abs(imag(g)) > 1e-5 {
				return false
			}
			gotR[i] = real(g)
		}
		sort.Float64s(want)
		sort.Float64s(gotR)
		for i := range want {
			if math.Abs(want[i]-gotR[i]) > 1e-4*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CharPoly roots match Eigenvalues of the same matrix.
func TestQuickCharPolyMatchesEig(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(3)
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rr.NormFloat64())
			}
		}
		pr, err := CharPoly(a).Roots()
		if err != nil {
			return false
		}
		ev, err := mat.Eigenvalues(a)
		if err != nil {
			return false
		}
		sortEigenvalues(pr)
		sortEigenvalues(ev)
		for i := range pr {
			d := pr[i] - ev[i]
			if math.Hypot(real(d), imag(d)) > 1e-4*(1+math.Hypot(real(ev[i]), imag(ev[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	if s := New(1, -2, 3).String(); s == "" {
		t.Error("String empty")
	}
	if s := New(0).String(); s != "0" {
		t.Errorf("zero poly String = %q", s)
	}
}

// sortEigenvalues orders eigenvalues by descending magnitude (ties broken
// by real part, then imaginary part) so two listings pair up index by index.
func sortEigenvalues(e []complex128) {
	abs := func(c complex128) float64 { return math.Hypot(real(c), imag(c)) }
	sort.Slice(e, func(i, j int) bool {
		if mi, mj := abs(e[i]), abs(e[j]); mi != mj {
			return mi > mj
		}
		if real(e[i]) != real(e[j]) {
			return real(e[i]) > real(e[j])
		}
		return imag(e[i]) > imag(e[j])
	})
}
