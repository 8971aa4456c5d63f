package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func eigOrFail(t *testing.T, a *Matrix) []complex128 {
	t.Helper()
	e, err := Eigenvalues(a)
	if err != nil {
		t.Fatalf("Eigenvalues: %v", err)
	}
	return e
}

func TestEigDiagonal(t *testing.T) {
	a := NewFromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 0.5}})
	e := eigOrFail(t, a)
	sortEigenvalues(e)
	want := []complex128{3, -1, 0.5}
	for i, w := range want {
		if cmplxAbs(e[i]-w) > 1e-12 {
			t.Errorf("eig[%d] = %v, want %v", i, e[i], w)
		}
	}
}

func TestEigComplexPair(t *testing.T) {
	// Rotation-scaling matrix: eigenvalues r*e^{±iθ} with r=0.9, θ=0.7.
	r, th := 0.9, 0.7
	a := NewFromRows([][]float64{
		{r * math.Cos(th), -r * math.Sin(th)},
		{r * math.Sin(th), r * math.Cos(th)},
	})
	e := eigOrFail(t, a)
	for _, ev := range e {
		almostEq(t, cmplxAbs(ev), r, 1e-12, "eig magnitude")
		almostEq(t, math.Abs(imag(ev)), r*math.Sin(th), 1e-12, "eig imag part")
	}
	if imag(e[0])*imag(e[1]) >= 0 {
		t.Error("complex eigenvalues must be conjugates")
	}
}

func TestEigKnown3x3(t *testing.T) {
	// Companion matrix of (x-1)(x-2)(x-3) = x^3 -6x^2 +11x -6.
	a := NewFromRows([][]float64{
		{0, 0, 6},
		{1, 0, -11},
		{0, 1, 6},
	})
	e := eigOrFail(t, a)
	got := []float64{real(e[0]), real(e[1]), real(e[2])}
	sort.Float64s(got)
	for i, w := range []float64{1, 2, 3} {
		almostEq(t, got[i], w, 1e-8, "companion eigenvalue")
		almostEq(t, imag(e[i]), 0, 1e-8, "companion eig imag")
	}
}

func TestEigSize1And2(t *testing.T) {
	e := eigOrFail(t, NewFromRows([][]float64{{-4}}))
	if len(e) != 1 || e[0] != -4 {
		t.Errorf("1x1 eig: %v", e)
	}
	e = eigOrFail(t, NewFromRows([][]float64{{0, 1}, {-1, 0}}))
	for _, ev := range e {
		almostEq(t, real(ev), 0, 1e-14, "pure rotation real part")
		almostEq(t, math.Abs(imag(ev)), 1, 1e-14, "pure rotation imag part")
	}
}

func TestEigDefective(t *testing.T) {
	// Jordan block: repeated eigenvalue 2 with one eigenvector.
	a := NewFromRows([][]float64{{2, 1}, {0, 2}})
	e := eigOrFail(t, a)
	for _, ev := range e {
		if cmplxAbs(ev-2) > 1e-6 {
			t.Errorf("Jordan eig = %v, want 2", ev)
		}
	}
}

func TestSpectralRadius(t *testing.T) {
	a := NewFromRows([][]float64{{0.5, 0.2}, {0, -0.8}})
	r, err := SpectralRadius(a)
	if err != nil {
		t.Fatal(err)
	}
	almostEq(t, r, 0.8, 1e-12, "spectral radius triangular")

	nan := NewFromRows([][]float64{{math.NaN()}})
	r, err = SpectralRadius(nan)
	if err != nil || !math.IsInf(r, 1) {
		t.Errorf("NaN matrix spectral radius = %v, %v; want +Inf, nil", r, err)
	}
}

func TestEigEmptyAndZero(t *testing.T) {
	e := eigOrFail(t, New(2, 2))
	for _, ev := range e {
		if cmplxAbs(ev) > 1e-14 {
			t.Errorf("zero matrix eig %v", ev)
		}
	}
}

// Property: the eigenvalue sum equals the trace and the product equals the
// determinant, for random matrices.
func TestQuickEigTraceDet(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(6)
		a := randomMatrix(rr, n, n)
		e, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		sum := complex(0, 0)
		prod := complex(1, 0)
		for _, ev := range e {
			sum += ev
			prod *= ev
		}
		scale := 1 + a.InfNorm()
		if math.Abs(real(sum)-a.Trace()) > 1e-7*scale || math.Abs(imag(sum)) > 1e-7*scale {
			return false
		}
		d := Det(a)
		return cmplxAbs(prod-complex(d, 0)) <= 1e-6*(1+math.Abs(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvalues of A^2 are the squares of eigenvalues of A.
func TestQuickEigSquare(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(4)
		a := randomMatrix(rr, n, n)
		e1, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		e2, err := Eigenvalues(a.Mul(a))
		if err != nil {
			return false
		}
		sq := make([]complex128, len(e1))
		for i, ev := range e1 {
			sq[i] = ev * ev
		}
		sortEigenvalues(sq)
		sortEigenvalues(e2)
		for i := range sq {
			if cmplxAbs(sq[i]-e2[i]) > 1e-5*(1+cmplxAbs(sq[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEigLargerStable(t *testing.T) {
	// A randomly generated 12x12 matrix: verify char-poly consistency via
	// trace of powers (Newton's identities spot check: sum of eigs^k equals
	// trace(A^k)).
	r := rand.New(rand.NewSource(99))
	a := randomMatrix(r, 12, 12)
	e := eigOrFail(t, a)
	ak := Identity(12)
	for k := 1; k <= 3; k++ {
		ak = ak.Mul(a)
		var s complex128
		for _, ev := range e {
			p := complex(1, 0)
			for i := 0; i < k; i++ {
				p *= ev
			}
			s += p
		}
		if math.Abs(real(s)-ak.Trace()) > 1e-6*(1+math.Abs(ak.Trace())) {
			t.Errorf("sum eig^%d = %v, trace(A^%d) = %g", k, s, k, ak.Trace())
		}
	}
}

// sortEigenvalues orders eigenvalues by descending magnitude (ties broken
// by real part, then imaginary part) so test expectations are stable.
func sortEigenvalues(e []complex128) {
	sort.Slice(e, func(i, j int) bool {
		mi, mj := cmplxAbs(e[i]), cmplxAbs(e[j])
		if mi != mj {
			return mi > mj
		}
		if real(e[i]) != real(e[j]) {
			return real(e[i]) > real(e[j])
		}
		return imag(e[i]) > imag(e[j])
	})
}

// SpectralRadius is EigWorkspace.SpectralRadius on a fresh workspace.
func SpectralRadius(a *Matrix) (float64, error) {
	return NewEigWorkspace(a.rows).SpectralRadius(a)
}
