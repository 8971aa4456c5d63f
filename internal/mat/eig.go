package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned by Eigenvalues when the QR iteration fails to
// converge within the iteration budget. This is extremely rare for the
// well-scaled closed-loop matrices produced by the control pipeline.
var ErrNoConvergence = errors.New("mat: eigenvalue iteration did not converge")

// Eigenvalues returns all eigenvalues of a square real matrix, in no
// particular order. The implementation balances the matrix, reduces it to
// upper Hessenberg form by stabilized elementary transformations, and runs
// the Francis double-shift QR iteration (the classic EISPACK BALANC /
// ELMHES / HQR sequence).
func Eigenvalues(a *Matrix) ([]complex128, error) {
	a.mustSquare("Eigenvalues")
	n := a.rows
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return []complex128{complex(a.data[0], 0)}, nil
	}
	// Work on a 1-based copy to keep the classic algorithm port faithful.
	h := make([][]float64, n+1)
	for i := 1; i <= n; i++ {
		h[i] = make([]float64, n+1)
		for j := 1; j <= n; j++ {
			h[i][j] = a.data[(i-1)*n+(j-1)]
		}
	}
	balance(h, n)
	elmhes(h, n)
	wr, wi, err := hqr(h, n)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, n)
	for i := 1; i <= n; i++ {
		out[i-1] = complex(wr[i], wi[i])
	}
	return out, nil
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// EigWorkspace holds the intermediate buffers of repeated same-dimension
// eigenvalue computations (the 1-based Hessenberg copy and the root
// arrays), so stability checks running once per objective evaluation — the
// spectral radius of every candidate design's monodromy matrix — stop
// allocating. It runs the same balance/elmhes/hqr sequence as Eigenvalues.
// A workspace is not safe for concurrent use; the design loop keeps one per
// worker.
type EigWorkspace struct {
	n      int
	h      [][]float64
	wr, wi []float64
}

// NewEigWorkspace returns a workspace for n-by-n eigenvalue problems.
func NewEigWorkspace(n int) *EigWorkspace {
	w := &EigWorkspace{n: n, wr: make([]float64, n+1), wi: make([]float64, n+1)}
	w.h = make([][]float64, n+1)
	back := make([]float64, (n+1)*(n+1))
	for i := range w.h {
		w.h[i] = back[i*(n+1) : (i+1)*(n+1)]
	}
	return w
}

// SpectralRadius returns the largest eigenvalue magnitude of a, which must
// have the workspace's dimension (or be 0x0 or 1x1). It returns +Inf if the
// matrix contains non-finite entries and propagates ErrNoConvergence from
// the eigenvalue iteration.
func (w *EigWorkspace) SpectralRadius(a *Matrix) (float64, error) {
	a.mustSquare("SpectralRadius")
	if !a.IsFinite() {
		return math.Inf(1), nil
	}
	n := a.rows
	if n == 0 {
		return 0, nil
	}
	if n == 1 {
		// cmplxAbs(complex(x, 0)) == Hypot(x, 0) == |x| exactly.
		return math.Abs(a.data[0]), nil
	}
	if n != w.n {
		panic(fmt.Sprintf("mat: EigWorkspace holds dimension %d, got %d", w.n, n))
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			w.h[i][j] = a.data[(i-1)*n+(j-1)]
		}
	}
	balance(w.h, n)
	elmhes(w.h, n)
	if err := hqrInto(w.h, n, w.wr, w.wi); err != nil {
		return 0, err
	}
	r := 0.0
	for i := 1; i <= n; i++ {
		if m := cmplxAbs(complex(w.wr[i], w.wi[i])); m > r {
			r = m
		}
	}
	return r, nil
}

// balance scales a (1-based) matrix by diagonal similarity transforms so
// that row and column norms are comparable, improving eigenvalue accuracy.
func balance(a [][]float64, n int) {
	const radix = 2.0
	const sqrdx = radix * radix
	for {
		done := true
		for i := 1; i <= n; i++ {
			r, c := 0.0, 0.0
			for j := 1; j <= n; j++ {
				if j != i {
					c += math.Abs(a[j][i])
					r += math.Abs(a[i][j])
				}
			}
			if c == 0 || r == 0 {
				continue
			}
			g := r / radix
			f := 1.0
			s := c + r
			for c < g {
				f *= radix
				c *= sqrdx
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= sqrdx
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				for j := 1; j <= n; j++ {
					a[i][j] *= g
				}
				for j := 1; j <= n; j++ {
					a[j][i] *= f
				}
			}
		}
		if done {
			return
		}
	}
}

// elmhes reduces a (1-based) matrix to upper Hessenberg form using
// stabilized elementary similarity transformations.
func elmhes(a [][]float64, n int) {
	for m := 2; m < n; m++ {
		x := 0.0
		i := m
		for j := m; j <= n; j++ {
			if math.Abs(a[j][m-1]) > math.Abs(x) {
				x = a[j][m-1]
				i = j
			}
		}
		if i != m {
			for j := m - 1; j <= n; j++ {
				a[i][j], a[m][j] = a[m][j], a[i][j]
			}
			for j := 1; j <= n; j++ {
				a[j][i], a[j][m] = a[j][m], a[j][i]
			}
		}
		if x == 0 {
			continue
		}
		for i := m + 1; i <= n; i++ {
			y := a[i][m-1]
			if y == 0 {
				continue
			}
			y /= x
			a[i][m-1] = y
			for j := m; j <= n; j++ {
				a[i][j] -= y * a[m][j]
			}
			for j := 1; j <= n; j++ {
				a[j][m] += y * a[j][i]
			}
		}
	}
}

func sign(a, b float64) float64 {
	if b >= 0 {
		return math.Abs(a)
	}
	return -math.Abs(a)
}

// hqr finds all eigenvalues of a (1-based) upper Hessenberg matrix by the
// Francis double-shift QR iteration with deflation and exceptional shifts.
// The matrix is destroyed. Returned slices are 1-based like the input.
func hqr(a [][]float64, n int) (wr, wi []float64, err error) {
	wr = make([]float64, n+1)
	wi = make([]float64, n+1)
	if err := hqrInto(a, n, wr, wi); err != nil {
		return nil, nil, err
	}
	return wr, wi, nil
}

// hqrInto is hqr writing the roots into caller-provided 1-based slices of
// length n+1; every index 1..n is assigned before a nil error returns.
func hqrInto(a [][]float64, n int, wr, wi []float64) error {
	anorm := 0.0
	for i := 1; i <= n; i++ {
		lo := i - 1
		if lo < 1 {
			lo = 1
		}
		for j := lo; j <= n; j++ {
			anorm += math.Abs(a[i][j])
		}
	}
	nn := n
	t := 0.0
	for nn >= 1 {
		its := 0
		var l int
		for {
			// Look for a single small subdiagonal element to split the
			// matrix.
			for l = nn; l >= 2; l-- {
				s := math.Abs(a[l-1][l-1]) + math.Abs(a[l][l])
				if s == 0 {
					s = anorm
				}
				if math.Abs(a[l][l-1])+s == s {
					a[l][l-1] = 0
					break
				}
			}
			x := a[nn][nn]
			if l == nn {
				// One real root found.
				wr[nn] = x + t
				wi[nn] = 0
				nn--
				break
			}
			y := a[nn-1][nn-1]
			w := a[nn][nn-1] * a[nn-1][nn]
			if l == nn-1 {
				// Two roots found (real pair or complex conjugates).
				p := 0.5 * (y - x)
				q := p*p + w
				z := math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 {
					z = p + sign(z, p)
					wr[nn-1] = x + z
					wr[nn] = wr[nn-1]
					if z != 0 {
						wr[nn] = x - w/z
					}
					wi[nn-1] = 0
					wi[nn] = 0
				} else {
					wr[nn-1] = x + p
					wr[nn] = wr[nn-1]
					wi[nn] = z
					wi[nn-1] = -z
				}
				nn -= 2
				break
			}
			// No roots yet: perform a double QR step.
			if its == 60 {
				return ErrNoConvergence
			}
			if its == 10 || its == 20 || its == 30 || its == 40 || its == 50 {
				// Exceptional shift to break symmetry-induced cycling.
				t += x
				for i := 1; i <= nn; i++ {
					a[i][i] -= x
				}
				s := math.Abs(a[nn][nn-1]) + math.Abs(a[nn-1][nn-2])
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			var m int
			var p, q, r float64
			for m = nn - 2; m >= l; m-- {
				// Find two consecutive small subdiagonal elements.
				z := a[m][m]
				r = x - z
				s := y - z
				p = (r*s-w)/a[m+1][m] + a[m][m+1]
				q = a[m+1][m+1] - z - r - s
				r = a[m+2][m+1]
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u := math.Abs(a[m][m-1]) * (math.Abs(q) + math.Abs(r))
				v := math.Abs(p) * (math.Abs(a[m-1][m-1]) + math.Abs(z) + math.Abs(a[m+1][m+1]))
				if u+v == v {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				a[i][i-2] = 0
				if i != m+2 {
					a[i][i-3] = 0
				}
			}
			for k := m; k <= nn-1; k++ {
				// Double QR step on rows l..nn and columns m..nn.
				if k != m {
					p = a[k][k-1]
					q = a[k+1][k-1]
					r = 0
					if k != nn-1 {
						r = a[k+2][k-1]
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x != 0 {
						p /= x
						q /= x
						r /= x
					}
				}
				s := sign(math.Sqrt(p*p+q*q+r*r), p)
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						a[k][k-1] = -a[k][k-1]
					}
				} else {
					a[k][k-1] = -s * x
				}
				p += s
				x = p / s
				y = q / s
				z := r / s
				q /= p
				r /= p
				for j := k; j <= nn; j++ {
					// Row modification.
					p = a[k][j] + q*a[k+1][j]
					if k != nn-1 {
						p += r * a[k+2][j]
						a[k+2][j] -= p * z
					}
					a[k+1][j] -= p * y
					a[k][j] -= p * x
				}
				mmin := nn
				if k+3 < nn {
					mmin = k + 3
				}
				for i := l; i <= mmin; i++ {
					// Column modification.
					p = x*a[i][k] + y*a[i][k+1]
					if k != nn-1 {
						p += z * a[i][k+2]
						a[i][k+2] -= p * r
					}
					a[i][k+1] -= p * q
					a[i][k] -= p
				}
			}
		}
	}
	return nil
}
