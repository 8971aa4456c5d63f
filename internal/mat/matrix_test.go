package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func randomMatrix(r *rand.Rand, n, m int) *Matrix {
	a := New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	return a
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape: got %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 4.5)
	if m.At(1, 2) != 4.5 {
		t.Errorf("At(1,2) = %g, want 4.5", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("zero init violated: %g", m.At(0, 0))
	}
}

func TestNewFromRowsAndEqual(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{1, 2}, {3, 4 + 1e-12}})
	if !a.Equal(b, 1e-9) {
		t.Error("Equal within tolerance failed")
	}
	if a.Equal(b, 1e-15) {
		t.Error("Equal should fail at tight tolerance")
	}
	c := NewFromRows([][]float64{{1, 2, 3}})
	if a.Equal(c, 1) {
		t.Error("Equal must reject shape mismatch")
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 4, 4)
	if !a.Mul(Identity(4)).Equal(a, 1e-14) {
		t.Error("A*I != A")
	}
	if !Identity(4).Mul(a).Equal(a, 1e-14) {
		t.Error("I*A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !a.Mul(b).Equal(want, 0) {
		t.Errorf("Mul: got\n%v want\n%v", a.Mul(b), want)
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on inner-dimension mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, -2}, {0, 3}})
	b := NewFromRows([][]float64{{4, 1}, {2, -1}})
	if !a.Add(b).Sub(b).Equal(a, 1e-15) {
		t.Error("(A+B)-B != A")
	}
	if !a.Scale(2).Equal(a.Add(a), 1e-15) {
		t.Error("2A != A+A")
	}
	if !a.AddScaled(-1, a).Equal(Zeros(2, 2), 0) {
		t.Error("A + (-1)A != 0")
	}
}

func TestTranspose(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", at.Rows(), at.Cols())
	}
	if !at.Transpose().Equal(a, 0) {
		t.Error("(A^T)^T != A")
	}
	if at.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %g, want 6", at.At(2, 1))
	}
}

func TestNorms(t *testing.T) {
	a := NewFromRows([][]float64{{1, -2}, {-3, 4}})
	almostEq(t, a.InfNorm(), 7, 0, "inf norm")
	almostEq(t, a.Norm1(), 6, 0, "1-norm")
	almostEq(t, a.Frobenius(), math.Sqrt(30), 1e-15, "frobenius")
	almostEq(t, a.MaxAbs(), 4, 0, "max abs")
	almostEq(t, a.Trace(), 5, 0, "trace")
}

func TestRowColOps(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	row := a.Row(1)
	row[0] = 99 // must be a copy
	if a.At(1, 0) != 3 {
		t.Error("Row must return a copy")
	}
	col := a.Col(1)
	if col[0] != 2 || col[1] != 4 {
		t.Errorf("Col: got %v", col)
	}
	a.SetRow(0, []float64{7, 8})
	a.SetCol(1, []float64{9, 10})
	want := NewFromRows([][]float64{{7, 9}, {3, 10}})
	if !a.Equal(want, 0) {
		t.Errorf("after SetRow/SetCol: got\n%v", a)
	}
}

func TestSliceAndSetSlice(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Slice(1, 3, 0, 2)
	want := NewFromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equal(want, 0) {
		t.Errorf("Slice: got\n%v", s)
	}
	s.Set(0, 0, -1) // must not alias a
	if a.At(1, 0) != 4 {
		t.Error("Slice must copy")
	}
	a.SetSlice(0, 1, NewFromRows([][]float64{{0, 0}, {0, 0}}))
	if a.At(0, 1) != 0 || a.At(1, 2) != 0 {
		t.Error("SetSlice did not write block")
	}
}

func TestColRowVec(t *testing.T) {
	v := ColVec(1, 2, 3)
	if v.Rows() != 3 || v.Cols() != 1 || v.At(2, 0) != 3 {
		t.Error("ColVec wrong")
	}
	w := RowVec(1, 2, 3)
	if w.Rows() != 1 || w.Cols() != 3 || w.At(0, 2) != 3 {
		t.Error("RowVec wrong")
	}
}

func TestIsFinite(t *testing.T) {
	a := Identity(2)
	if !a.IsFinite() {
		t.Error("identity should be finite")
	}
	a.Set(0, 1, math.NaN())
	if a.IsFinite() {
		t.Error("NaN should be non-finite")
	}
	a.Set(0, 1, math.Inf(-1))
	if a.IsFinite() {
		t.Error("Inf should be non-finite")
	}
}

func TestStringRenders(t *testing.T) {
	s := NewFromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Error("String should render something")
	}
}

// Property: matrix addition commutes and Mul distributes over Add.
func TestQuickAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(5)
		a, b, c := randomMatrix(rr, n, n), randomMatrix(rr, n, n), randomMatrix(rr, n, n)
		if !a.Add(b).Equal(b.Add(a), 1e-12) {
			return false
		}
		lhs := a.Mul(b.Add(c))
		rhs := a.Mul(b).Add(a.Mul(c))
		return lhs.Equal(rhs, 1e-9*(1+lhs.MaxAbs()))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n, m, p := 1+rr.Intn(4), 1+rr.Intn(4), 1+rr.Intn(4)
		a, b := randomMatrix(rr, n, m), randomMatrix(rr, m, p)
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Test-only Matrix helpers: the production code has no caller for them.

// AddScaled returns m + s*b. It panics on shape mismatch.
func (m *Matrix) AddScaled(s float64, b *Matrix) *Matrix {
	m.sameShape(b, "AddScaled")
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v + s*b.data[i]
	}
	return out
}

// Norm1 returns the maximum absolute column sum of m.
func (m *Matrix) Norm1() float64 {
	sums := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			sums[j] += math.Abs(m.data[i*m.cols+j])
		}
	}
	max := 0.0
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// SetRow overwrites row i with v. It panics if len(v) != Cols().
func (m *Matrix) SetRow(i int, v []float64) {
	m.check(i, 0)
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// SetCol overwrites column j with v. It panics if len(v) != Rows().
func (m *Matrix) SetCol(j int, v []float64) {
	m.check(0, j)
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}
