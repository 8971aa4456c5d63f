package lti

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// doubleIntegrator returns the standard double-integrator plant.
func doubleIntegrator() *System {
	return MustSystem(
		mat.NewFromRows([][]float64{{0, 1}, {0, 0}}),
		mat.ColVec(0, 1),
		mat.RowVec(1, 0),
	)
}

// stableFirstOrder returns dx/dt = -a x + a u (DC gain 1, time constant 1/a).
func stableFirstOrder(a float64) *System {
	return MustSystem(
		mat.NewFromRows([][]float64{{-a}}),
		mat.ColVec(a),
		mat.RowVec(1),
	)
}

func TestNewSystemValidation(t *testing.T) {
	a := mat.Identity(2)
	b := mat.ColVec(1, 0)
	c := mat.RowVec(1, 0)
	if _, err := NewSystem(a, b, c); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	if _, err := NewSystem(mat.New(2, 3), b, c); err == nil {
		t.Error("non-square A accepted")
	}
	if _, err := NewSystem(a, mat.ColVec(1), c); err == nil {
		t.Error("wrong-size B accepted")
	}
	if _, err := NewSystem(a, b, mat.RowVec(1)); err == nil {
		t.Error("wrong-size C accepted")
	}
}

func TestCtrbDoubleIntegrator(t *testing.T) {
	s := doubleIntegrator()
	ct := Ctrb(s.A, s.B)
	want := mat.NewFromRows([][]float64{{0, 1}, {1, 0}})
	if !ct.Equal(want, 0) {
		t.Errorf("Ctrb:\n%v", ct)
	}
	if !IsControllable(s.A, s.B) {
		t.Error("double integrator must be controllable")
	}
}

func TestNotControllable(t *testing.T) {
	// Second state disconnected from the input.
	a := mat.NewFromRows([][]float64{{-1, 0}, {0, -2}})
	b := mat.ColVec(1, 0)
	if IsControllable(a, b) {
		t.Error("disconnected mode reported controllable")
	}
}

func TestStability(t *testing.T) {
	stable, err := StableCT(mat.NewFromRows([][]float64{{-1, 0}, {0, -3}}))
	if err != nil || !stable {
		t.Errorf("Hurwitz matrix reported unstable: %v %v", stable, err)
	}
	stable, err = StableCT(mat.NewFromRows([][]float64{{0, 1}, {0, 0}}))
	if err != nil || stable {
		t.Error("double integrator is not asymptotically stable")
	}
	stable, err = StableDT(mat.NewFromRows([][]float64{{0.5, 1}, {0, -0.9}}))
	if err != nil || !stable {
		t.Error("Schur matrix reported unstable")
	}
	stable, err = StableDT(mat.Identity(2))
	if err != nil || stable {
		t.Error("identity is not Schur stable")
	}
}

func TestDiscretizeFirstOrder(t *testing.T) {
	a := 3.0
	s := stableFirstOrder(a)
	h := 0.2
	d, err := Discretize(s, h)
	if err != nil {
		t.Fatal(err)
	}
	wantAd := math.Exp(-a * h)
	wantBd := 1 - math.Exp(-a*h) // DC gain 1
	if math.Abs(d.Ad.At(0, 0)-wantAd) > 1e-12 {
		t.Errorf("Ad = %g, want %g", d.Ad.At(0, 0), wantAd)
	}
	if math.Abs(d.Bd.At(0, 0)-wantBd) > 1e-12 {
		t.Errorf("Bd = %g, want %g", d.Bd.At(0, 0), wantBd)
	}
}

func TestDiscretizeRejectsBadPeriod(t *testing.T) {
	s := stableFirstOrder(1)
	if _, err := Discretize(s, 0); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := DiscretizeDelayed(s, 0.1, -0.01); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := DiscretizeDelayed(s, 0.1, 0.2); err == nil {
		t.Error("delay > h accepted")
	}
}

func TestDelayedDiscretizationLimits(t *testing.T) {
	s := doubleIntegrator()
	h := 0.1
	zoh, err := Discretize(s, h)
	if err != nil {
		t.Fatal(err)
	}
	// tau = 0: all input weight on BCur, equals ZOH.
	d0, err := DiscretizeDelayed(s, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.BCur.Equal(zoh.Bd, 1e-12) || d0.BPrev.MaxAbs() > 1e-14 {
		t.Error("tau=0 must reduce to plain ZOH")
	}
	// tau = h: all input weight on BPrev.
	dh, err := DiscretizeDelayed(s, h, h)
	if err != nil {
		t.Fatal(err)
	}
	if !dh.BPrev.Equal(zoh.Bd, 1e-12) || dh.BCur.MaxAbs() > 1e-14 {
		t.Error("tau=h must push all weight to the held input")
	}
}

func TestDelayedBTotalEqualsZOH(t *testing.T) {
	// For any tau, BPrev + BCur == Γ(h): same DC behavior.
	s := doubleIntegrator()
	h := 0.25
	zoh, _ := Discretize(s, h)
	for _, tau := range []float64{0, 0.05, 0.125, 0.2, 0.25} {
		d, err := DiscretizeDelayed(s, h, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !d.BTotal().Equal(zoh.Bd, 1e-12) {
			t.Errorf("tau=%g: BPrev+BCur != Γ(h)", tau)
		}
		if !d.Ad.Equal(zoh.Ad, 1e-12) {
			t.Errorf("tau=%g: Ad mismatch", tau)
		}
	}
}

func TestDelayedDiscretizationAnalytic(t *testing.T) {
	// First-order system: closed forms for BPrev and BCur.
	a := 2.0
	s := stableFirstOrder(a)
	h, tau := 0.3, 0.1
	d, err := DiscretizeDelayed(s, h, tau)
	if err != nil {
		t.Fatal(err)
	}
	gamma := func(t float64) float64 { return 1 - math.Exp(-a*t) } // ∫e^{-as}a ds
	wantPrev := math.Exp(-a*(h-tau)) * gamma(tau)
	wantCur := gamma(h - tau)
	if math.Abs(d.BPrev.At(0, 0)-wantPrev) > 1e-12 {
		t.Errorf("BPrev = %g, want %g", d.BPrev.At(0, 0), wantPrev)
	}
	if math.Abs(d.BCur.At(0, 0)-wantCur) > 1e-12 {
		t.Errorf("BCur = %g, want %g", d.BCur.At(0, 0), wantCur)
	}
}

// Property: splitting an interval at the delay point and composing two exact
// ZOH discretizations reproduces the delayed discretization.
func TestQuickDelayedComposition(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(3)
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rr.NormFloat64())
			}
		}
		b := mat.New(n, 1)
		for i := 0; i < n; i++ {
			b.Set(i, 0, rr.NormFloat64())
		}
		c := mat.New(1, n)
		c.Set(0, 0, 1)
		s := MustSystem(a, b, c)
		h := 0.05 + 0.3*rr.Float64()
		tau := h * rr.Float64()
		d, err := DiscretizeDelayed(s, h, tau)
		if err != nil {
			return false
		}
		// Propagate x over [0,tau) with uPrev, then [tau,h) with uCur.
		ad1, bd1 := mat.ExpmIntegral(a, b, tau)
		ad2, bd2 := mat.ExpmIntegral(a, b, h-tau)
		// x(h) = ad2*(ad1 x + bd1 uPrev) + bd2 uCur
		okA := ad2.Mul(ad1).Equal(d.Ad, 1e-8*(1+d.Ad.MaxAbs()))
		okP := ad2.Mul(bd1).Equal(d.BPrev, 1e-8*(1+d.BPrev.MaxAbs()+1))
		okC := bd2.Equal(d.BCur, 1e-8*(1+d.BCur.MaxAbs()+1))
		return okA && okP && okC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Test-only analysis helpers: the design pipeline discretizes through
// DiscretizeDelayed and checks stability on its own workspaces.

// StableCT reports whether the continuous-time system matrix is Hurwitz
// (all eigenvalue real parts strictly negative).
func StableCT(a *mat.Matrix) (bool, error) {
	eigs, err := mat.Eigenvalues(a)
	if err != nil {
		return false, err
	}
	for _, e := range eigs {
		if real(e) >= 0 {
			return false, nil
		}
	}
	return true, nil
}

// StableDT reports whether a discrete-time system matrix is Schur (spectral
// radius strictly less than one).
func StableDT(a *mat.Matrix) (bool, error) {
	r, err := mat.NewEigWorkspace(a.Rows()).SpectralRadius(a)
	if err != nil {
		return false, err
	}
	return r < 1, nil
}

// Discrete is a standard ZOH discretization of a System at period h:
// x[k+1] = Ad x[k] + Bd u[k], y = C x.
type Discrete struct {
	Ad *mat.Matrix
	Bd *mat.Matrix
	C  *mat.Matrix
	H  float64 // sampling period in seconds
}

// Discretize returns the exact ZOH discretization of s at period h.
func Discretize(s *System, h float64) (*Discrete, error) {
	if h <= 0 {
		return nil, ErrNonPositivePeriod
	}
	ad, bd := mat.ExpmIntegral(s.A, s.B, h)
	return &Discrete{Ad: ad, Bd: bd, C: s.C.Clone(), H: h}, nil
}
