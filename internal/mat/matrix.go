// Package mat provides a small, self-contained dense linear-algebra kernel
// used by the control-design and scheduling layers of this repository.
//
// It implements exactly the operations the cache-aware control co-design
// pipeline needs — general real matrices, LU-based solves, Householder QR,
// Hessenberg reduction, Francis double-shift QR eigenvalues, and the matrix
// exponential — with no external dependencies. Matrices are dense,
// row-major, and sized at construction time.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major real matrix.
//
// The zero value is not usable; construct matrices with New, NewFromRows,
// Identity, or Zeros.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns an r-by-c zero matrix. It panics if either dimension is
// non-positive.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from a slice of equal-length rows. It panics
// on an empty input or ragged rows.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: NewFromRows on empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d entries, want %d", i, len(row), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Zeros returns an r-by-c zero matrix. It is an alias of New provided for
// readability at call sites that build block matrices.
func Zeros(r, c int) *Matrix { return New(r, c) }

// ColVec returns a column vector (len(v)-by-1 matrix) with the given entries.
func ColVec(v ...float64) *Matrix {
	m := New(len(v), 1)
	copy(m.data, v)
	return m
}

// RowVec returns a row vector (1-by-len(v) matrix) with the given entries.
func RowVec(v ...float64) *Matrix {
	m := New(1, len(v))
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j (0-based). It panics if the
// indices are out of range.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j (0-based). It panics if the
// indices are out of range.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether m and b have identical shape and entries equal
// within absolute tolerance tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + b. It panics on shape mismatch.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.sameShape(b, "Add")
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns m - b. It panics on shape mismatch.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.sameShape(b, "Sub")
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = s * v
	}
	return out
}

// Mul returns the matrix product m*b. It panics if m.Cols() != b.Rows().
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	m.TransposeTo(out)
	return out
}

// TransposeTo writes the transpose of m into dst without allocating. dst
// must not alias m (except for 1x1 matrices, where aliasing is harmless).
func (m *Matrix) TransposeTo(dst *Matrix) {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic(fmt.Sprintf("mat: TransposeTo dst %dx%d, want %dx%d", dst.rows, dst.cols, m.cols, m.rows))
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
}

// InfNorm returns the maximum absolute row sum of m.
func (m *Matrix) InfNorm() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for j := 0; j < m.cols; j++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// MaxAbs returns the largest absolute entry of m.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Trace returns the sum of diagonal entries. It panics if m is not square.
func (m *Matrix) Trace() float64 {
	m.mustSquare("Trace")
	t := 0.0
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

func (m *Matrix) mustSquare(op string) {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: %s requires a square matrix, got %dx%d", op, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	m.check(i, 0)
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	m.check(0, j)
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Slice returns a copy of the submatrix with rows [r0,r1) and columns
// [c0,c1). It panics on an empty or out-of-range selection.
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("mat: Slice [%d:%d,%d:%d] out of range for %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetSlice copies b into m starting at row r0, column c0. It panics if b
// does not fit.
func (m *Matrix) SetSlice(r0, c0 int, b *Matrix) {
	if r0 < 0 || c0 < 0 || r0+b.rows > m.rows || c0+b.cols > m.cols {
		panic(fmt.Sprintf("mat: SetSlice %dx%d at (%d,%d) does not fit in %dx%d", b.rows, b.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < b.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+b.cols], b.data[i*b.cols:(i+1)*b.cols])
	}
}

// String renders m with aligned columns, suitable for debugging output.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "% .6g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// RowInto copies row i into dst without allocating. It panics if dst does
// not have exactly Cols entries.
func (m *Matrix) RowInto(i int, dst []float64) {
	m.check(i, 0)
	if len(dst) != m.cols {
		panic(fmt.Sprintf("mat: RowInto length %d != cols %d", len(dst), m.cols))
	}
	copy(dst, m.data[i*m.cols:(i+1)*m.cols])
}

// Copy overwrites m with the entries of b. It panics on shape mismatch.
func (m *Matrix) Copy(b *Matrix) {
	m.sameShape(b, "Copy")
	copy(m.data, b.data)
}

// Zero overwrites every entry of m with +0 (exactly the state of a fresh
// matrix, unlike scaling by zero, which keeps signed zeros and NaNs).
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// SetIdentity overwrites m with the identity matrix. It panics if m is not
// square.
func (m *Matrix) SetIdentity() {
	m.mustSquare("SetIdentity")
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// MulTo computes dst = m * b without allocating. dst must not alias m or b.
// It accumulates in the same order as Mul, so results are bit-identical.
func (m *Matrix) MulTo(dst, b *Matrix) {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTo shape mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo dst %dx%d, want %dx%d", dst.rows, dst.cols, m.rows, b.cols))
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := dst.data[i*b.cols : (i+1)*b.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

// AddScaledTo computes dst = m + s*b without allocating. dst may alias m or
// b. It panics on shape mismatch.
func (m *Matrix) AddScaledTo(dst *Matrix, s float64, b *Matrix) {
	m.sameShape(b, "AddScaledTo")
	m.sameShape(dst, "AddScaledTo")
	for i, v := range m.data {
		dst.data[i] = v + s*b.data[i]
	}
}

// ScaleTo computes dst = s*m without allocating. dst may alias m. It panics
// on shape mismatch.
func (m *Matrix) ScaleTo(dst *Matrix, s float64) {
	m.sameShape(dst, "ScaleTo")
	for i, v := range m.data {
		dst.data[i] = s * v
	}
}

// IsFinite reports whether every entry of m is finite (no NaN or Inf).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
