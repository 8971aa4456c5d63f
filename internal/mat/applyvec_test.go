package mat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestApplyVecKnown(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	dst := make([]float64, 3)
	m.ApplyVec(dst, []float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestApplyVecDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Identity(2).ApplyVec(make([]float64, 3), []float64{1, 2})
}

// Property: ApplyVec agrees with Mul on column vectors.
func TestQuickApplyVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(5), 1+r.Intn(5)
		a := randomMatrix(r, n, m)
		src := make([]float64, m)
		for i := range src {
			src[i] = r.NormFloat64()
		}
		dst := make([]float64, n)
		a.ApplyVec(dst, src)
		want := a.Mul(ColVec(src...))
		for i := range dst {
			if diff := dst[i] - want.At(i, 0); diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The reference matrix-vector products the Flat kernels are pinned
// against; the production code only runs the fused ApplyVecAdd.

// ApplyVec computes dst = m * src, treating src (length Cols) and dst
// (length Rows) as column vectors. dst must not alias src.
func (m *Matrix) ApplyVec(dst, src []float64) {
	if len(src) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: ApplyVec dims dst=%d src=%d for %dx%d", len(dst), len(src), m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for k, v := range row {
			s += v * src[k]
		}
		dst[i] = s
	}
}

// ApplyVec computes dst = f * src, treating src (length Cols) and dst
// (length Rows) as column vectors; dst must not alias src. It accumulates
// in the same order as Matrix.ApplyVec, so results are bit-identical.
func (f Flat) ApplyVec(dst, src []float64) {
	if len(src) != f.Cols || len(dst) != f.Rows {
		panic(fmt.Sprintf("mat: Flat.ApplyVec dims dst=%d src=%d for %dx%d", len(dst), len(src), f.Rows, f.Cols))
	}
	for i := 0; i < f.Rows; i++ {
		row := f.Data[i*f.Stride : i*f.Stride+f.Cols]
		s := 0.0
		for k, v := range row {
			s += v * src[k]
		}
		dst[i] = s
	}
}
