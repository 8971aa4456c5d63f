package mat

import (
	"fmt"
	"math"
)

// Expm returns the matrix exponential e^A computed by the diagonal Padé
// approximation with scaling and squaring (Golub & Van Loan, Algorithm
// 11.3.1, q = 6). The input is not modified. It runs ExpmTo on a fresh
// workspace.
func Expm(a *Matrix) *Matrix {
	a.mustSquare("Expm")
	dst := New(a.rows, a.rows)
	NewExpmWorkspace(a.rows).ExpmTo(dst, a)
	return dst
}

// ExpmIntegral returns the pair
//
//	Ad = e^(A*t)
//	Bd = ∫₀ᵗ e^(A*s) ds · B
//
// used to discretize a continuous-time LTI system under a zero-order hold.
// It is computed exactly (up to the Expm accuracy) via the exponential of
// the augmented block matrix [[A, B], [0, 0]] * t, on a fresh workspace.
func ExpmIntegral(a, b *Matrix, t float64) (ad, bd *Matrix) {
	return NewExpmWorkspace(a.rows+b.cols).ExpmIntegral(a, b, t)
}

// ExpmWorkspace holds the intermediate matrices of repeated same-dimension
// Expm / ExpmIntegral evaluations, so batch discretizers (the simulation-plan
// compiler, mode tables) stop allocating fresh Padé temporaries per call.
// The package-level Expm and ExpmIntegral are these methods on a fresh
// workspace. A workspace is not safe for concurrent use.
type ExpmWorkspace struct {
	n                   int
	as, x, x2, num, den *Matrix
	e                   *Matrix // e^aug result buffer
	aug                 *Matrix // augmented [[A,B],[0,0]]*t for ExpmIntegral
}

// NewExpmWorkspace returns a workspace for n-by-n exponentials. For
// ExpmIntegral calls, n must be the augmented dimension A.Rows()+B.Cols().
func NewExpmWorkspace(n int) *ExpmWorkspace {
	return &ExpmWorkspace{
		n:   n,
		as:  New(n, n),
		x:   New(n, n),
		x2:  New(n, n),
		num: New(n, n),
		den: New(n, n),
		e:   New(n, n),
		aug: New(n, n),
	}
}

// ExpmTo computes dst = e^a using the workspace buffers (only the Padé
// solve still allocates its LU factors).
func (w *ExpmWorkspace) ExpmTo(dst, a *Matrix) {
	a.mustSquare("ExpmTo")
	if a.rows != w.n || dst.rows != w.n || dst.cols != w.n {
		panic(fmt.Sprintf("mat: ExpmTo dimension %d, workspace holds %d", a.rows, w.n))
	}

	norm := a.InfNorm()
	j := 0
	if norm > 0.5 {
		j = int(math.Ceil(math.Log2(norm) + 1))
		if j < 0 {
			j = 0
		}
	}
	a.ScaleTo(w.as, 1/math.Pow(2, float64(j)))

	const q = 6
	w.x.SetIdentity()
	w.num.SetIdentity()
	w.den.SetIdentity()
	c := 1.0
	x, x2 := w.x, w.x2
	for k := 1; k <= q; k++ {
		c = c * float64(q-k+1) / (float64(k) * float64(2*q-k+1))
		w.as.MulTo(x2, x)
		x, x2 = x2, x
		w.num.AddScaledTo(w.num, c, x)
		if k%2 == 0 {
			w.den.AddScaledTo(w.den, c, x)
		} else {
			w.den.AddScaledTo(w.den, -c, x)
		}
	}
	f, err := Solve(w.den, w.num)
	if err != nil {
		// The denominator of the diagonal Padé approximant is nonsingular
		// for ||As|| <= 1/2; reaching this indicates non-finite input.
		panic("mat: ExpmTo failed to solve Padé system: " + err.Error())
	}

	cur, buf := f, x // x is free after the Padé loop
	for k := 0; k < j; k++ {
		cur.MulTo(buf, cur)
		cur, buf = buf, cur
	}
	dst.Copy(cur)
}

// ExpmIntegral computes the package-level ExpmIntegral pair: it returns
// freshly allocated Ad, Bd (callers retain them in compiled plans) but
// reuses the workspace for every intermediate. The workspace
// dimension must equal A.Rows()+B.Cols().
func (w *ExpmWorkspace) ExpmIntegral(a, b *Matrix, t float64) (ad, bd *Matrix) {
	a.mustSquare("ExpmIntegral")
	if b.rows != a.rows {
		panic("mat: ExpmIntegral B row count must match A")
	}
	n, m := a.rows, b.cols
	if n+m != w.n {
		panic(fmt.Sprintf("mat: ExpmIntegral augmented dimension %d, workspace holds %d", n+m, w.n))
	}
	for i := range w.aug.data {
		w.aug.data[i] = 0
	}
	for i := 0; i < n; i++ {
		augRow := w.aug.data[i*w.aug.cols : i*w.aug.cols+w.aug.cols]
		aRow := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range aRow {
			augRow[j] = t * v
		}
		bRow := b.data[i*b.cols : (i+1)*b.cols]
		for j, v := range bRow {
			augRow[n+j] = t * v
		}
	}
	w.ExpmTo(w.e, w.aug)
	return w.e.Slice(0, n, 0, n), w.e.Slice(0, n, n, n+m)
}
