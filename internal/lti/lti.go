// Package lti models the linear time-invariant feedback-control plants of
// the paper: continuous-time SISO state-space systems, their zero-order-hold
// discretizations (including the delayed-input discretization needed when
// the sensing-to-actuation delay is shorter than the sampling period), and
// response/settling-time measurement.
//
// Conventions follow Section II-A of the paper: dynamics
// x[k+1] = A x[k] + B u[k], output y[k] = C x[k], state fully measurable.
package lti

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// System is a continuous-time SISO LTI plant dx/dt = A x + B u, y = C x.
type System struct {
	A *mat.Matrix // l-by-l state matrix
	B *mat.Matrix // l-by-1 input matrix
	C *mat.Matrix // 1-by-l output matrix
}

// NewSystem validates dimensions and returns a continuous-time system.
func NewSystem(a, b, c *mat.Matrix) (*System, error) {
	l := a.Rows()
	if a.Cols() != l {
		return nil, fmt.Errorf("lti: A must be square, got %dx%d", a.Rows(), a.Cols())
	}
	if b.Rows() != l || b.Cols() != 1 {
		return nil, fmt.Errorf("lti: B must be %dx1, got %dx%d", l, b.Rows(), b.Cols())
	}
	if c.Rows() != 1 || c.Cols() != l {
		return nil, fmt.Errorf("lti: C must be 1x%d, got %dx%d", l, c.Rows(), c.Cols())
	}
	return &System{A: a, B: b, C: c}, nil
}

// MustSystem is NewSystem that panics on error, for static plant tables.
func MustSystem(a, b, c *mat.Matrix) *System {
	s, err := NewSystem(a, b, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Order returns the number of states l.
func (s *System) Order() int { return s.A.Rows() }

// Ctrb returns the controllability matrix [B AB ... A^(l-1)B] (l-by-l for
// SISO systems).
func Ctrb(a, b *mat.Matrix) *mat.Matrix {
	l := a.Rows()
	ctrb := mat.New(l, l*b.Cols())
	col := b.Clone()
	for k := 0; k < l; k++ {
		ctrb.SetSlice(0, k*b.Cols(), col)
		col = a.Mul(col)
	}
	return ctrb
}

// IsControllable reports whether (A, B) is controllable, i.e. the
// controllability matrix is full rank. For the SISO systems used here the
// matrix is square, so a determinant test suffices (with a scale-aware
// threshold).
func IsControllable(a, b *mat.Matrix) bool {
	ct := Ctrb(a, b)
	d := mat.Det(ct)
	scale := ct.InfNorm()
	if scale == 0 {
		return false
	}
	// Normalize: |det| relative to norm^l guards against false negatives
	// from badly scaled (but controllable) systems.
	l := float64(a.Rows())
	ref := 1.0
	for i := 0.0; i < l; i++ {
		ref *= scale
	}
	return d != 0 && abs(d) > 1e-12*ref
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ErrNonPositivePeriod is returned when a discretization is requested with
// h <= 0 or a delay outside [0, h].
var ErrNonPositivePeriod = errors.New("lti: sampling period must be positive and delay within [0, h]")

// DelayedDiscrete is the discretization of one sampling interval of length H
// during which the control input switches once: the previously computed
// input uPrev is applied on [0, H-Tau') ... precisely, the input computed
// from the sample at the interval start is actuated Tau seconds into the
// interval (the sensing-to-actuation delay), with the held previous input
// applied before that:
//
//	x[k+1] = Ad x[k] + BPrev u[k-1] + BCur u[k]
//
// With Tau == H (delay equal to the period, the case for back-to-back tasks
// in a burst) BCur is zero and the new input only takes effect in the next
// interval.
type DelayedDiscrete struct {
	Ad    *mat.Matrix
	BPrev *mat.Matrix
	BCur  *mat.Matrix
	C     *mat.Matrix
	H     float64 // sampling period (s)
	Tau   float64 // sensing-to-actuation delay (s), 0 <= Tau <= H
}

// DiscretizeDelayed returns the delayed-input discretization of s over one
// interval of length h with sensing-to-actuation delay tau in [0, h].
//
// Derivation (paper Eq. (12)): the state at the end of the interval is
//
//	x(h) = e^{Ah} x(0) + e^{A(h-tau)} Γ(tau) u_prev + Γ(h-tau) u_cur
//
// with Γ(t) = ∫₀ᵗ e^{As} ds · B, since u_prev is held on [0,tau) and u_cur
// on [tau,h).
func DiscretizeDelayed(s *System, h, tau float64) (*DelayedDiscrete, error) {
	if h <= 0 || tau < 0 || tau > h+1e-15 {
		return nil, ErrNonPositivePeriod
	}
	if tau > h {
		tau = h
	}
	ad, _ := mat.ExpmIntegral(s.A, s.B, h)
	l := s.Order()
	var bPrev, bCur *mat.Matrix
	switch {
	case tau == 0:
		// Input computed instantly: classic ZOH.
		_, g := mat.ExpmIntegral(s.A, s.B, h)
		bPrev = mat.Zeros(l, 1)
		bCur = g
	case tau >= h:
		// New input only effective from the next interval.
		_, g := mat.ExpmIntegral(s.A, s.B, h)
		bPrev = g
		bCur = mat.Zeros(l, 1)
	default:
		eRest, gTail := mat.ExpmIntegral(s.A, s.B, h-tau) // e^{A(h-tau)}, Γ(h-tau)
		_, gHead := mat.ExpmIntegral(s.A, s.B, tau)       // Γ(tau)
		bPrev = eRest.Mul(gHead)
		bCur = gTail
	}
	return &DelayedDiscrete{Ad: ad, BPrev: bPrev, BCur: bCur, C: s.C.Clone(), H: h, Tau: tau}, nil
}

// BTotal returns BPrev + BCur, which equals the plain ZOH input matrix Γ(H)
// and governs the DC gain of the interval.
func (d *DelayedDiscrete) BTotal() *mat.Matrix { return d.BPrev.Add(d.BCur) }
