// Package poly implements the real polynomial arithmetic of the
// pole-placement machinery: construction from complex root sets and
// evaluation at a matrix, as Ackermann's formula needs them.
package poly

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
)

// Poly is a real polynomial stored with ascending coefficients:
// p[0] + p[1]*x + p[2]*x^2 + ...
type Poly []float64

// New returns a polynomial with the given ascending coefficients, trimmed
// of trailing (highest-degree) zeros.
func New(coeffs ...float64) Poly {
	p := Poly(append([]float64(nil), coeffs...))
	return p.trim()
}

func (p Poly) trim() Poly {
	n := len(p)
	for n > 1 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// EvalMat evaluates the matrix polynomial p(A) using Horner's rule.
func (p Poly) EvalMat(a *mat.Matrix) *mat.Matrix {
	n := a.Rows()
	if len(p) == 0 {
		return mat.Zeros(n, n)
	}
	v := mat.Identity(n).Scale(p[len(p)-1])
	for i := len(p) - 2; i >= 0; i-- {
		v = a.Mul(v).Add(mat.Identity(n).Scale(p[i]))
	}
	return v
}

// Mul returns the product p*q.
func (p Poly) Mul(q Poly) Poly {
	if len(p) == 0 || len(q) == 0 {
		return Poly{0}
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			out[i+j] += a * b
		}
	}
	return out.trim()
}

// Add returns the sum p+q.
func (p Poly) Add(q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	copy(out, p)
	for i, b := range q {
		out[i] += b
	}
	return out.trim()
}

// Scale returns s*p.
func (p Poly) Scale(s float64) Poly {
	out := make(Poly, len(p))
	for i, a := range p {
		out[i] = s * a
	}
	return out.trim()
}

// String renders the polynomial in conventional descending-power notation.
func (p Poly) String() string {
	if len(p) == 0 {
		return "0"
	}
	s := ""
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == 0 && len(p) > 1 {
			continue
		}
		if s != "" {
			if p[i] >= 0 {
				s += " + "
			} else {
				s += " - "
			}
			s += fmt.Sprintf("%g", math.Abs(p[i]))
		} else {
			s += fmt.Sprintf("%g", p[i])
		}
		switch {
		case i == 1:
			s += "*x"
		case i > 1:
			s += fmt.Sprintf("*x^%d", i)
		}
	}
	if s == "" {
		s = "0"
	}
	return s
}

// FromRoots returns the monic polynomial whose roots are the given complex
// values. Complex roots must occur in conjugate pairs (within tolerance) so
// the result has real coefficients; FromRoots returns an error otherwise.
func FromRoots(roots []complex128) (Poly, error) {
	// Multiply out in complex arithmetic, then validate realness.
	coeffs := []complex128{1}
	for _, r := range roots {
		next := make([]complex128, len(coeffs)+1)
		for i, c := range coeffs {
			next[i+1] += c
			next[i] -= c * r
		}
		coeffs = next
	}
	out := make(Poly, len(coeffs))
	scale := 0.0
	for _, c := range coeffs {
		if m := cmplx.Abs(c); m > scale {
			scale = m
		}
	}
	if scale == 0 {
		scale = 1
	}
	for i, c := range coeffs {
		if math.Abs(imag(c)) > 1e-8*scale {
			return nil, fmt.Errorf("poly: roots are not closed under conjugation (coeff %d has imaginary part %g)", i, imag(c))
		}
		out[i] = real(c)
	}
	return out, nil
}
