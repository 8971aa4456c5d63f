package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestFlatViewAliasesMatrix(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	f := m.Flat()
	if f.Rows != 2 || f.Cols != 2 || f.Stride != 2 {
		t.Fatalf("flat shape %dx%d stride %d", f.Rows, f.Cols, f.Stride)
	}
	if f.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g", f.At(1, 0))
	}
	f.Row(0)[1] = 9
	if m.At(0, 1) != 9 {
		t.Fatal("write through Flat row not visible in Matrix")
	}
}

func TestFlatViewStride(t *testing.T) {
	// A 2x2 view with stride 3 inside a 2x3 buffer: the third column is
	// skipped, not read.
	data := []float64{1, 2, 99, 3, 4, 99}
	f := FlatView(data, 2, 2, 3)
	dst := make([]float64, 2)
	f.ApplyVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("strided ApplyVec = %v, want [3 7]", dst)
	}
}

func TestFlatViewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short buffer":     func() { FlatView(make([]float64, 3), 2, 2, 2) },
		"stride below col": func() { FlatView(make([]float64, 9), 2, 3, 2) },
		"zero rows":        func() { FlatView(make([]float64, 9), 0, 3, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFlatApplyVecBitIdentical pins the contract the simulation hot loop
// depends on: the Flat kernels accumulate exactly like Matrix.ApplyVec.
func TestFlatApplyVecBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		m := randomMatrix(r, rows, cols)
		src := make([]float64, cols)
		for i := range src {
			src[i] = r.NormFloat64()
		}
		want := make([]float64, rows)
		m.ApplyVec(want, src)
		got := make([]float64, rows)
		m.Flat().ApplyVec(got, src)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d: Flat.ApplyVec[%d] = %x, Matrix %x", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFlatApplyVecAddBitIdentical pins the fused kernel against the unfused
// ApplyVec-then-axpy sequence the simulator previously ran.
func TestFlatApplyVecAddBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(6)
		m := randomMatrix(r, n, n)
		src := make([]float64, n)
		add := make([]float64, n)
		for i := range src {
			src[i] = r.NormFloat64()
			add[i] = r.NormFloat64()
		}
		u := r.NormFloat64()
		want := make([]float64, n)
		m.ApplyVec(want, src)
		for i := range want {
			want[i] += add[i] * u
		}
		got := make([]float64, n)
		m.Flat().ApplyVecAdd(got, src, add, u)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d: fused[%d] = %x, unfused %x", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEigWorkspaceSpectralRadius pins the workspace's bit-identity to the
// allocating reference, including the non-finite and 1x1 shortcuts.
func TestEigWorkspaceSpectralRadius(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 5} {
		w := NewEigWorkspace(n)
		for trial := 0; trial < 30; trial++ {
			a := randomMatrix(r, n, n)
			want, errW := refSpectralRadius(a)
			got, errG := w.SpectralRadius(a)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("n=%d trial %d: err %v vs %v", n, trial, errW, errG)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("n=%d trial %d: workspace %x, reference %x", n, trial, got, want)
			}
		}
		inf := New(n, n)
		inf.Set(0, 0, math.Inf(1))
		if got, err := w.SpectralRadius(inf); err != nil || !math.IsInf(got, 1) {
			t.Fatalf("non-finite input: got %g, %v", got, err)
		}
	}
}

func TestEigWorkspaceDimensionPanics(t *testing.T) {
	w := NewEigWorkspace(3)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	w.SpectralRadius(Identity(4))
}

// TestLUWorkspaceSolve pins the workspace solve against the allocating
// Solve, including the singular-matrix error path.
func TestLUWorkspaceSolve(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, shape := range []struct{ n, cols int }{{1, 1}, {3, 1}, {4, 2}, {12, 1}} {
		w := NewLUWorkspace(shape.n, shape.cols)
		for trial := 0; trial < 20; trial++ {
			a := randomMatrix(r, shape.n, shape.n)
			b := randomMatrix(r, shape.n, shape.cols)
			want, errW := Solve(a, b)
			got, errG := w.Solve(a, b)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("n=%d trial %d: err %v vs %v", shape.n, trial, errW, errG)
			}
			if errW != nil {
				continue
			}
			for i := 0; i < shape.n; i++ {
				for j := 0; j < shape.cols; j++ {
					if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
						t.Fatalf("n=%d trial %d: x[%d,%d] workspace %x, reference %x",
							shape.n, trial, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
	// Singular input must return ErrSingular like Factor does.
	w := NewLUWorkspace(2, 1)
	if _, err := w.Solve(New(2, 2), New(2, 1)); err != ErrSingular {
		t.Fatalf("singular solve: %v, want ErrSingular", err)
	}
	// The workspace stays usable after an error.
	if _, err := w.Solve(Identity(2), ColVec(1, 2)); err != nil {
		t.Fatalf("solve after singular: %v", err)
	}
}

// refSpectralRadius is the largest magnitude over the allocating
// Eigenvalues, the reference EigWorkspace.SpectralRadius is pinned
// bit-identical to.
func refSpectralRadius(a *Matrix) (float64, error) {
	if !a.IsFinite() {
		return math.Inf(1), nil
	}
	eigs, err := Eigenvalues(a)
	if err != nil {
		return 0, err
	}
	r := 0.0
	for _, e := range eigs {
		if m := cmplxAbs(e); m > r {
			r = m
		}
	}
	return r, nil
}
