package mat

import "fmt"

// Flat is a stride-aware matrix view over a flat []float64 buffer: element
// (i, j) lives at Data[i*Stride+j]. It exists for hot loops that want many
// small matrices packed into one contiguous arena (the compiled simulation
// plans of internal/ctrl) instead of pointer-chasing a *Matrix per step:
// the view is a value (no heap indirection beyond the shared buffer) and
// its kernels accumulate in exactly the same element order as the *Matrix
// ones, so switching a loop to Flat never changes a result bit.
//
// A Flat aliasing a Matrix (via Matrix.Flat) shares its storage; writes
// through either are visible to both.
type Flat struct {
	Rows, Cols, Stride int
	Data               []float64
}

// Flat returns a flat view aliasing m's storage (Stride == Cols).
func (m *Matrix) Flat() Flat {
	return Flat{Rows: m.rows, Cols: m.cols, Stride: m.cols, Data: m.data}
}

// FlatView wraps an existing buffer as an r-by-c view with the given row
// stride. It panics on impossible shapes or a buffer too short to hold the
// last element.
func FlatView(data []float64, r, c, stride int) Flat {
	if r <= 0 || c <= 0 || stride < c {
		panic(fmt.Sprintf("mat: FlatView invalid shape %dx%d stride %d", r, c, stride))
	}
	if need := (r-1)*stride + c; len(data) < need {
		panic(fmt.Sprintf("mat: FlatView buffer %d too short for %dx%d stride %d (need %d)", len(data), r, c, stride, need))
	}
	return Flat{Rows: r, Cols: c, Stride: stride, Data: data}
}

// At returns element (i, j). It panics if the indices are out of range.
func (f Flat) At(i, j int) float64 {
	if i < 0 || i >= f.Rows || j < 0 || j >= f.Cols {
		panic(fmt.Sprintf("mat: Flat index (%d,%d) out of range for %dx%d view", i, j, f.Rows, f.Cols))
	}
	return f.Data[i*f.Stride+j]
}

// Row returns row i as a subslice of the underlying buffer (no copy).
func (f Flat) Row(i int) []float64 {
	if i < 0 || i >= f.Rows {
		panic(fmt.Sprintf("mat: Flat row %d out of range for %d rows", i, f.Rows))
	}
	return f.Data[i*f.Stride : i*f.Stride+f.Cols]
}

// ApplyVecAdd computes dst = f*src + u*add in one pass: the fused
// propagation kernel of the simulation step x' = Ad x + bd u. Element i is
// evaluated as (Σ_k f[i,k]·src[k]) + add[i]·u — exactly the value the
// unfused ApplyVec-then-axpy sequence produces, so the fusion is
// bit-identical. dst must not alias src.
func (f Flat) ApplyVecAdd(dst, src, add []float64, u float64) {
	if len(src) != f.Cols || len(dst) != f.Rows || len(add) != f.Rows {
		panic(fmt.Sprintf("mat: Flat.ApplyVecAdd dims dst=%d src=%d add=%d for %dx%d", len(dst), len(src), len(add), f.Rows, f.Cols))
	}
	if f.Rows == 2 && f.Cols == 2 {
		// Second-order plants dominate the case studies; the unrolled form
		// performs the same operations in the same order as the loop
		// (including the 0.0 starting accumulator, which matters for the
		// signed zeros a folded first term would lose).
		d := f.Data
		x0, x1 := src[0], src[1]
		s0 := 0.0
		s0 += d[0] * x0
		s0 += d[1] * x1
		s1 := 0.0
		s1 += d[f.Stride] * x0
		s1 += d[f.Stride+1] * x1
		dst[0] = s0 + add[0]*u
		dst[1] = s1 + add[1]*u
		return
	}
	for i := 0; i < f.Rows; i++ {
		row := f.Data[i*f.Stride : i*f.Stride+f.Cols]
		s := 0.0
		for k, v := range row {
			s += v * src[k]
		}
		dst[i] = s + add[i]*u
	}
}
