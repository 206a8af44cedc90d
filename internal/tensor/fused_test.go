package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// unfusedCompose is the reference pipeline the fused kernel must match
// bit-for-bit: matmul, then row-broadcast bias, then pointwise act.
func unfusedCompose(a, b, bias *Tensor, act Activation) *Tensor {
	y := MatMul(a, b)
	if bias != nil {
		AddRowVector(y, bias)
	}
	switch act {
	case ActReLU:
		y.Apply(ReLU32)
	case ActTanh:
		y.Apply(Tanh32)
	case ActSigmoid:
		y.Apply(Sigmoid32)
	}
	return y
}

// TestMatMulBiasActFusedEquivalence sweeps random shapes, all
// activations, bias present/absent, and several parallelism degrees,
// asserting the fused kernel is bit-identical to the unfused compose.
func TestMatMulBiasActFusedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	acts := []Activation{ActNone, ActReLU, ActTanh, ActSigmoid}
	for _, par := range []int{1, 2, 4, 8} {
		prev := SetParallelism(par)
		for trial := 0; trial < 24; trial++ {
			m := 1 + rng.Intn(17)
			k := 1 + rng.Intn(33) // crosses the 8-way unroll boundary
			n := 1 + rng.Intn(19)
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			var bias *Tensor
			if trial%2 == 0 {
				bias = Randn(rng, 1, n)
			}
			act := acts[trial%len(acts)]
			want := unfusedCompose(a, b, bias, act)
			got := GetRaw(m, n)
			MatMulBiasActInto(got, a, b, bias, act)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("par=%d m=%d k=%d n=%d act=%d bias=%v: fused[%d]=%v unfused=%v (not bit-identical)",
						par, m, k, n, act, bias != nil, i, got.Data[i], want.Data[i])
				}
			}
			Put(got)
		}
		SetParallelism(prev)
	}
}

// TestMatMulBiasActConcurrent runs fused kernels from many goroutines
// to prove the shared pool and row panels are race-clean (meaningful
// under -race).
func TestMatMulBiasActConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			a := Randn(rng, 1, 9, 24)
			b := Randn(rng, 1, 24, 11)
			bias := Randn(rng, 1, 11)
			want := unfusedCompose(a, b, bias, ActTanh)
			for iter := 0; iter < 50; iter++ {
				got := GetRaw(9, 11)
				MatMulBiasActInto(got, a, b, bias, ActTanh)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent fused mismatch at %d", i)
						break
					}
				}
				Put(got)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestSumRowsInto checks SumRowsInto against its definition — each
// column summed from +0 down the rows — and that it overwrites whatever
// dst held: a second call gives the sum again, not twice it.
func TestSumRowsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 5, 8)
	want := New(8)
	for i := 0; i < 5; i++ {
		for j := 0; j < 8; j++ {
			want.Data[j] += a.At(i, j)
		}
	}
	dst := GetRaw(8)
	dst.Fill(float32(math.NaN()))
	for call := 0; call < 2; call++ {
		SumRowsInto(dst, a)
		if err := sameBits(dst, want); err != nil {
			t.Fatalf("SumRowsInto call %d: %v", call, err)
		}
	}
	Put(dst)
}

// TestIm2ColIntoOverwritesPadding proves Im2ColInto fully overwrites an
// uninitialized destination, including zero padding positions.
func TestIm2ColIntoOverwritesPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	in := Randn(rng, 1, 2, g.InC, g.InH, g.InW)
	want := im2Col(in, g)
	dst := GetRaw(want.Shape...)
	dst.Fill(42) // poison: stale garbage must not leak through padding
	Im2ColInto(dst, in, g)
	if !dst.AllClose(want, 0) {
		t.Fatalf("Im2ColInto left garbage in the panel")
	}
	Put(dst)
}
