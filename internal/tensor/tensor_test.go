package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 {
		t.Fatalf("Size = %d, want 24", a.Size())
	}
	if a.NumDims() != 3 || a.Dim(0) != 2 || a.Dim(1) != 3 || a.Dim(2) != 4 {
		t.Fatalf("bad dims: %v", a.Shape)
	}
	if a.Bytes() != 96 {
		t.Fatalf("Bytes = %d, want 96", a.Bytes())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if got := a.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := a.Data[2*4+1]; got != 7.5 {
		t.Fatalf("flat layout wrong: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[0] = 9
	if a.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 42
	if a.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeViewAndInfer(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, -1)
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("reshape got %v", b.Shape)
	}
	b.Data[0] = 10
	if a.Data[0] != 10 {
		t.Fatal("Reshape must be a view")
	}
}

func TestReshapePanicsOnBadVolume(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.Add(b)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Add[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	a.Sub(b)
	if a.Data[0] != 1 || a.Data[2] != 3 {
		t.Fatalf("Sub wrong: %v", a.Data)
	}
	a.Mul(b)
	if a.Data[1] != 10 {
		t.Fatalf("Mul wrong: %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[1] != 5 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice([]float32{1, 1}, 2)
	b := FromSlice([]float32{2, 4}, 2)
	a.AddScaled(0.5, b)
	if a.Data[0] != 2 || a.Data[1] != 3 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 4}, 2)
	if a.Sum() != 1 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if math.Abs(a.Norm()-5) > 1e-6 {
		t.Fatalf("Norm = %v", a.Norm())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// matMulNaive is an obviously-correct reference used to validate the
// cache-friendly kernels.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulVariantsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := matMulNaive(a, b)
		if got := MatMul(a, b); !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMul mismatch at %dx%dx%d", m, k, n)
		}
		if got := MatMulTransA(Transpose2D(a), b); !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMulTransA mismatch at %dx%dx%d", m, k, n)
		}
		if got := MatMulTransB(a, Transpose2D(b)); !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMulTransB mismatch at %dx%dx%d", m, k, n)
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Transpose2D(a)
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("shape %v", b.Shape)
	}
	if b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatalf("values wrong: %v", b.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 1, m, n)
		return Transpose2D(Transpose2D(a)).AllClose(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := Transpose2D(MatMul(a, b))
		rhs := MatMul(Transpose2D(b), Transpose2D(a))
		return lhs.AllClose(rhs, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) = A·B + A·C.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		lhs := MatMul(a, b.Clone().Add(c))
		rhs := MatMul(a, b).Add(MatMul(a, c))
		return lhs.AllClose(rhs, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float32{10, 20}, 2)
	AddRowVector(a, v)
	want := []float32{11, 22, 13, 24}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("AddRowVector[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
	s := SumRowsInto(New(2), a)
	if s.Data[0] != 24 || s.Data[1] != 46 {
		t.Fatalf("SumRowsInto = %v", s.Data)
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float32{0, 5, 2, 7, 1, 3}, 2, 3)
	got := ArgMaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// With a 1x1 kernel, stride 1, no pad, im2col is a pure reshape.
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}
	cols := im2Col(in, g)
	if cols.Dim(0) != 4 || cols.Dim(1) != 1 {
		t.Fatalf("shape %v", cols.Shape)
	}
	for i, w := range []float32{1, 2, 3, 4} {
		if cols.Data[i] != w {
			t.Fatalf("cols[%d] = %v, want %v", i, cols.Data[i], w)
		}
	}
}

func TestIm2ColWithPadding(t *testing.T) {
	in := FromSlice([]float32{5}, 1, 1, 1, 1)
	g := ConvGeom{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := im2Col(in, g)
	if cols.Dim(0) != 1 || cols.Dim(1) != 9 {
		t.Fatalf("shape %v", cols.Shape)
	}
	// Only the center of the 3x3 window overlaps the 1x1 image.
	for i := 0; i < 9; i++ {
		want := float32(0)
		if i == 4 {
			want = 5
		}
		if cols.Data[i] != want {
			t.Fatalf("cols[%d] = %v, want %v", i, cols.Data[i], want)
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col: <Im2Col(x), y> = <x, col2Im(y)>.
// This is exactly the property the conv backward pass relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 2 + rng.Intn(4), InW: 2 + rng.Intn(4),
			KH: 1 + rng.Intn(2), KW: 1 + rng.Intn(2), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			return true
		}
		b := 1 + rng.Intn(2)
		x := Randn(rng, 1, b, g.InC, g.InH, g.InW)
		cols := im2Col(x, g)
		y := Randn(rng, 1, cols.Shape[0], cols.Shape[1])
		var lhs float64
		for i := range cols.Data {
			lhs += float64(cols.Data[i]) * float64(y.Data[i])
		}
		back := col2Im(y, b, g)
		var rhs float64
		for i := range x.Data {
			rhs += float64(x.Data[i]) * float64(back.Data[i])
		}
		return math.Abs(lhs-rhs) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPoolKnown(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	out, idx := maxPool(in, g)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("MaxPool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	grad := MaxPoolBackwardInto(New(in.Shape...), Ones(1, 1, 2, 2), idx)
	// The gradient lands exactly on the maxima.
	if grad.At(0, 0, 1, 1) != 1 || grad.At(0, 0, 3, 3) != 1 || grad.Sum() != 4 {
		t.Fatalf("MaxPoolBackward wrong: %v", grad.Data)
	}
}

func TestMaxPoolPreservesMaxUnderStride1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w := 2+rng.Intn(5), 2+rng.Intn(5)
		in := Randn(rng, 1, 1, 1, h, w)
		g := ConvGeom{InC: 1, InH: h, InW: w, KH: h, KW: w, Stride: 1}
		out, _ := maxPool(in, g)
		// Pooling over the whole image returns the global max.
		var m float32 = in.Data[0]
		for _, v := range in.Data {
			if v > m {
				m = v
			}
		}
		return out.Size() == 1 && out.Data[0] == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandnStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 2.0, 10000)
	if m := a.Mean(); math.Abs(m) > 0.1 {
		t.Fatalf("Randn mean = %v, want ~0", m)
	}
	varSum := 0.0
	for _, v := range a.Data {
		varSum += float64(v) * float64(v)
	}
	if sd := math.Sqrt(varSum / float64(a.Size())); math.Abs(sd-2.0) > 0.1 {
		t.Fatalf("Randn stddev = %v, want ~2", sd)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandUniform(rng, -1, 1, 1000)
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("uniform sample %v out of range", v)
		}
	}
}

func TestZeroFillApply(t *testing.T) {
	a := Ones(4)
	a.Apply(func(x float32) float32 { return x * 3 })
	if a.Data[0] != 3 {
		t.Fatalf("Apply wrong: %v", a.Data)
	}
	a.Fill(2)
	if a.Data[3] != 2 {
		t.Fatalf("Fill wrong: %v", a.Data)
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatalf("Zero wrong: %v", a.Data)
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("SameShape false negative")
	}
	if New(2, 3).SameShape(New(3, 2)) || New(2, 3).SameShape(New(2, 3, 1)) {
		t.Fatal("SameShape false positive")
	}
}

// im2Col, col2Im and maxPool are the allocating forms of Im2ColInto,
// Col2ImInto and MaxPoolInto.
func im2Col(in *Tensor, g ConvGeom) *Tensor {
	return Im2ColInto(New(in.Shape[0]*g.OutH()*g.OutW(), g.InC*g.KH*g.KW), in, g)
}

func col2Im(cols *Tensor, batch int, g ConvGeom) *Tensor {
	return Col2ImInto(New(batch, g.InC, g.InH, g.InW), cols, g)
}

func maxPool(in *Tensor, g ConvGeom) (*Tensor, []int) {
	out := New(in.Shape[0], g.InC, g.OutH(), g.OutW())
	idx := make([]int, out.Size())
	MaxPoolInto(out, idx, in, g)
	return out, idx
}
