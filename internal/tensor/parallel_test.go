package tensor

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// Serial reference kernels: straightforward textbook loops, independent
// of the production kernels' blocking, unrolling, and pool dispatch.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return c
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return c
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func refTranspose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}

// uniform returns a [shape] tensor of U(-0.5, 0.5) samples: small
// magnitudes keep float32 rounding differences between differently
// ordered summations far below the 1e-5 equivalence tolerance.
func uniform(rng *rand.Rand, shape ...int) *Tensor {
	return RandUniform(rng, -0.5, 0.5, shape...)
}

func mustClose(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	if !got.AllClose(want, 1e-5) {
		t.Fatalf("%s: results differ beyond 1e-5", label)
	}
}

// matmulDims covers odd and even sizes on both sides of the unroll
// widths and the serial/parallel work threshold.
var matmulDims = []int{1, 2, 3, 5, 7, 9, 16, 17, 31, 33, 64, 127, 130}

func TestMatMulMatchesSerialReference(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := matmulDims[rng.Intn(len(matmulDims))]
		k := matmulDims[rng.Intn(len(matmulDims))]
		n := matmulDims[rng.Intn(len(matmulDims))]
		a := uniform(rng, m, k)
		b := uniform(rng, k, n)
		mustClose(t, MatMul(a, b), refMatMul(a, b), "matmul")

		at := uniform(rng, k, m)
		mustClose(t, MatMulTransA(at, b), refMatMulTransA(at, b), "matmulTransA")

		bt := uniform(rng, n, k)
		mustClose(t, MatMulTransB(a, bt), refMatMulTransB(a, bt), "matmulTransB")
	}
}

// TestMatMulLargePanels exercises shapes well above the dispatch
// threshold so multiple pool chunks genuinely run.
func TestMatMulLargePanels(t *testing.T) {
	defer SetParallelism(SetParallelism(8))
	rng := rand.New(rand.NewSource(12))
	for _, d := range [][3]int{{200, 96, 150}, {97, 211, 64}, {256, 256, 33}} {
		m, k, n := d[0], d[1], d[2]
		a, b := uniform(rng, m, k), uniform(rng, k, n)
		mustClose(t, MatMul(a, b), refMatMul(a, b), "matmul/large")
		at := uniform(rng, k, m)
		mustClose(t, MatMulTransA(at, b), refMatMulTransA(at, b), "matmulTransA/large")
		bt := uniform(rng, n, k)
		mustClose(t, MatMulTransB(a, bt), refMatMulTransB(a, bt), "matmulTransB/large")
	}
}

// TestParallelBitIdenticalToSerial checks a stronger property than the
// tolerance tests: row-panel parallelism never reorders per-row
// accumulation, so any parallelism degree must give bit-identical
// results to the serial fallback of the same kernel.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := uniform(rng, 123, 77)
	b := uniform(rng, 77, 91)
	at := uniform(rng, 77, 123)
	bt := uniform(rng, 91, 77)

	SetParallelism(1)
	serialAB := MatMul(a, b)
	serialTA := MatMulTransA(at, b)
	serialTB := MatMulTransB(a, bt)
	serialTr := Transpose2D(a)

	for _, p := range []int{2, 3, 8} {
		SetParallelism(p)
		for name, pair := range map[string][2]*Tensor{
			"matmul":       {MatMul(a, b), serialAB},
			"matmulTransA": {MatMulTransA(at, b), serialTA},
			"matmulTransB": {MatMulTransB(a, bt), serialTB},
			"transpose":    {Transpose2D(a), serialTr},
		} {
			got, want := pair[0], pair[1]
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s at parallelism %d: element %d = %v, serial %v",
						name, p, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	SetParallelism(0)
}

func TestTransposeBlockedMatchesReference(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	rng := rand.New(rand.NewSource(14))
	for _, d := range [][2]int{{1, 1}, {3, 200}, {31, 33}, {32, 32}, {100, 259}, {257, 64}} {
		a := uniform(rng, d[0], d[1])
		mustClose(t, Transpose2D(a), refTranspose(a), "transpose")
	}
}

func TestConvKernelsMatchSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	geoms := []ConvGeom{
		{InC: 1, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, InH: 13, InW: 11, KH: 5, KW: 3, Stride: 2, Pad: 2},
		{InC: 8, InH: 32, InW: 32, KH: 2, KW: 2, Stride: 2, Pad: 0},
	}
	for _, g := range geoms {
		for _, batch := range []int{1, 3, 8} {
			in := uniform(rng, batch, g.InC, g.InH, g.InW)
			cols := uniform(rng, batch*g.OutH()*g.OutW(), g.InC*g.KH*g.KW)

			SetParallelism(1)
			wantCols := im2Col(in, g)
			wantImg := col2Im(cols, batch, g)
			wantPool, wantIdx := maxPool(in, g)

			SetParallelism(4)
			gotCols := im2Col(in, g)
			gotImg := col2Im(cols, batch, g)
			gotPool, gotIdx := maxPool(in, g)

			mustClose(t, gotCols, wantCols, "im2col")
			mustClose(t, gotImg, wantImg, "col2im")
			mustClose(t, gotPool, wantPool, "maxpool")
			for i := range wantIdx {
				if gotIdx[i] != wantIdx[i] {
					t.Fatalf("maxpool idx[%d] = %d, serial %d", i, gotIdx[i], wantIdx[i])
				}
			}
		}
	}
	SetParallelism(0)
}

func TestMatMulIntoOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a, b := uniform(rng, 9, 12), uniform(rng, 12, 5)
	dst := Full(42, 9, 5)
	MatMulInto(dst, a, b)
	mustClose(t, dst, refMatMul(a, b), "matmulInto")

	at := uniform(rng, 12, 9)
	dst.Fill(-7)
	MatMulTransAInto(dst, at, b)
	mustClose(t, dst, refMatMulTransA(at, b), "matmulTransAInto")

	bt := uniform(rng, 5, 12)
	dst.Fill(99)
	MatMulTransBInto(dst, a, bt)
	mustClose(t, dst, refMatMulTransB(a, bt), "matmulTransBInto")
}

func TestSetParallelism(t *testing.T) {
	old := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	if prev := SetParallelism(0); prev != 3 {
		t.Fatalf("SetParallelism returned %d, want 3", prev)
	}
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallelism() = %d after reset, want GOMAXPROCS", got)
	}
	SetParallelism(old)
}

// TestOverlappingScopesRestoreWhenTheLastEnds holds ScopeParallelism to
// two serving replicas, each scoping the degree for its stages: released
// out of order, the first scope to end leaves the degree the second still
// runs at, and the last restores the one the first found, also when
// scopes open and close on several goroutines at once.
func TestOverlappingScopesRestoreWhenTheLastEnds(t *testing.T) {
	if runtime.NumCPU() < 2 || os.Getenv(ParallelismEnv) != "" {
		t.Skip("one core or a fixed degree: no scope lowers the degree")
	}
	defer SetParallelism(SetParallelism(runtime.NumCPU()))
	outer := Parallelism()
	first := ScopeParallelism(2)
	lowered := Parallelism()
	if lowered >= outer {
		t.Fatalf("a two-worker scope left degree %d of %d", lowered, outer)
	}
	second := ScopeParallelism(2)
	first()
	if got := Parallelism(); got != lowered {
		t.Fatalf("the first scope ended while the second is live: degree %d, want %d", got, lowered)
	}
	second()
	if got := Parallelism(); got != outer {
		t.Fatalf("both scopes ended: degree %d, want %d", got, outer)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ScopeParallelism(2)()
		}()
	}
	wg.Wait()
	if got := Parallelism(); got != outer {
		t.Fatalf("eight concurrent scopes ended: degree %d, want %d", got, outer)
	}
}

// TestParallelForConcurrentCallers drives many goroutines through the
// shared pool at once (the pipeline-stage pattern); under -race this
// also proves chunk dispatch itself is race-free.
func TestParallelForConcurrentCallers(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	rng := rand.New(rand.NewSource(17))
	a := uniform(rng, 96, 64)
	b := uniform(rng, 64, 80)
	want := refMatMul(a, b)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				got := MatMul(a, b)
				if !got.AllClose(want, 1e-5) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errParallel("concurrent MatMul diverged from reference")

type errParallel string

func (e errParallel) Error() string { return string(e) }

func TestGetPutRecyclesZeroed(t *testing.T) {
	x := Get(7, 5)
	if x.Size() != 35 || x.Shape[0] != 7 || x.Shape[1] != 5 {
		t.Fatalf("Get shape %v size %d", x.Shape, x.Size())
	}
	for i := range x.Data {
		x.Data[i] = float32(i + 1)
	}
	Put(x)
	y := Get(6, 6) // same size class (64)
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	Put(y)
}

func TestPutForeignBufferIsSafe(t *testing.T) {
	Put(nil)
	Put(&Tensor{Shape: []int{0}, Data: nil})
	// A FromSlice tensor with a non-power-of-two capacity must be
	// dropped, not pooled.
	raw := make([]float32, 33)
	Put(FromSlice(raw, 33))
	got := Get(33)
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("Get after foreign Put: element %d = %v", i, v)
		}
	}
	Put(got)
}

// BenchmarkMatMulDispatchCrossover is the measurement behind
// serialThreshold: MatMulInto on an [m,128]·[128,128] product at degree
// 1 and degree 2, for total work on both sides of the gate (below it the
// two legs run the same inline code and bound the noise). The crossover
// is the smallest work at which degree 2 beats degree 1.
func BenchmarkMatMulDispatchCrossover(b *testing.B) {
	const k, n = 128, 128
	rng := rand.New(rand.NewSource(31))
	w := uniform(rng, k, n)
	for _, m := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		x, y := uniform(rng, m, k), New(m, n)
		for _, deg := range []int{1, 2} {
			b.Run(fmt.Sprintf("work=%dK/degree=%d", m*k*n>>10, deg), func(b *testing.B) {
				defer SetParallelism(SetParallelism(deg))
				for i := 0; i < b.N; i++ {
					MatMulInto(y, x, w)
				}
			})
		}
	}
}
