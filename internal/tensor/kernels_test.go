package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The portable loops, called directly (not through the kernel
// selection), composed into whole products: the reference every kernel
// is held to bit for bit.

func portableMatMulBiasAct(dst, a, b, bias *Tensor, act Activation) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for i := 0; i < m; i++ {
		crow := dst.Data[i*n : (i+1)*n]
		rowPanelGo(crow, a.Data[i*k:(i+1)*k], b.Data, k, n, 0)
		if bias != nil {
			for j, bv := range bias.Data {
				crow[j] += bv
			}
		}
		ApplyActivation(crow, act)
	}
}

func portableMatMulTransA(dst, a, b *Tensor) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	transAPanelGo(dst.Data, a.Data, b.Data, m, k, n, 0, m, 0)
}

func portableMatMulTransB(dst, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		transBRowGo(dst.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, k, n, 0)
	}
}

// awkwardValues are the operands on which a reordered, fused or
// flushed-to-zero kernel would differ from the portable loop. The first
// finiteAwkward of them keep every product finite, so whole outputs do
// not collapse to NaN.
var awkwardValues = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-41,
	1e-20, -1e-19, 1e18, 1,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32,
}

const finiteAwkward = 10

// unalignedTensor returns a tensor whose storage starts an odd number
// of elements into its allocation (so it is aligned to neither a 16-
// nor a 32-byte boundary), filled with U(-1,1) samples of which one in
// eight is replaced by one of the first salt awkwardValues.
func unalignedTensor(rng *rand.Rand, salt int, shape ...int) *Tensor {
	size := 1
	for _, d := range shape {
		size *= d
	}
	off := 1 + 2*rng.Intn(2)
	data := make([]float32, off+size)[off:]
	for i := range data {
		data[i] = 2*rng.Float32() - 1
		if salt > 0 && rng.Intn(8) == 0 {
			data[i] = awkwardValues[rng.Intn(salt)]
		}
	}
	return FromSlice(data, shape...)
}

// sameBits reports the first element where got and want differ in
// their bit patterns, any NaN matching any NaN.
func sameBits(got, want *Tensor) error {
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return fmt.Errorf("element %d: kernel %v (%#08x), portable %v (%#08x)", i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	return nil
}

// checkKernelsBitEqual runs all three products and every fused epilogue
// at shape (m,k,n) through the public entry points and through the
// portable loops, at parallelism 1 and 3, and demands equal bits. Odd
// seeds salt the operands with ±Inf, NaN and overflowing values too.
func checkKernelsBitEqual(t *testing.T, seed int64, m, k, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	salt := finiteAwkward
	if seed&1 == 1 {
		salt = len(awkwardValues)
	}
	a, b := unalignedTensor(rng, salt, m, k), unalignedTensor(rng, salt, k, n)
	at, bt := unalignedTensor(rng, salt, k, m), unalignedTensor(rng, salt, n, k)
	bias := unalignedTensor(rng, salt, n)
	got, want := unalignedTensor(rng, 0, m, n), unalignedTensor(rng, 0, m, n) // garbage the products must overwrite
	defer SetParallelism(Parallelism())
	for _, par := range []int{1, 3} {
		SetParallelism(par)
		check := func(label string) {
			t.Helper()
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%s m=%d k=%d n=%d seed=%d par=%d: %v", label, m, k, n, seed, par, err)
			}
		}
		MatMulInto(got, a, b)
		portableMatMulBiasAct(want, a, b, nil, ActNone)
		check("MatMulInto")
		MatMulTransAInto(got, at, b)
		portableMatMulTransA(want, at, b)
		check("MatMulTransAInto")
		MatMulTransBInto(got, a, bt)
		portableMatMulTransB(want, a, bt)
		check("MatMulTransBInto")
		for _, act := range []Activation{ActNone, ActReLU, ActTanh, ActSigmoid} {
			for _, bs := range []*Tensor{nil, bias} {
				MatMulBiasActInto(got, a, b, bs, act)
				portableMatMulBiasAct(want, a, b, bs, act)
				check(fmt.Sprintf("MatMulBiasActInto(act=%d,bias=%v)", act, bs != nil))
			}
		}
	}
}

// benchShapes are the (m,k,n) — output [m,n], inner dimension k — the
// benchmark's workloads and per-layer probes multiply at:
// train-compute's hidden layer, its weight gradient as the probe times
// it, and its 256→8 head; serve-http's 1152→4 classifier; train-comm's
// 512→4 decoder with its k = 4 input gradient; and train-replicated's
// 64→512, 512→512 and 512→8 layers at batch 4.
var benchShapes = [][3]int{
	{64, 256, 256}, {256, 64, 256}, {64, 256, 8}, {16, 1152, 4}, {512, 512, 4}, {512, 4, 512},
	{4, 64, 512}, {4, 512, 512}, {4, 512, 8},
}

// fuzzMaxWork caps the multiply-adds of one fuzz execution at the
// largest bench shape; anything bigger is folded into [0,70]³.
const fuzzMaxWork = 64 * 256 * 256

// FuzzMatMulKernelsBitEqual is the standing gate of the kernel contract
// (matmul.go): whatever kernel the host selected produces, for every
// product and fused epilogue, the bits the portable loops produce.
func FuzzMatMulKernelsBitEqual(f *testing.F) {
	for _, s := range benchShapes {
		f.Add(int64(1), uint16(s[0]), uint16(s[1]), uint16(s[2]))
		f.Add(int64(2), uint16(s[0]), uint16(s[1]), uint16(s[2]))
	}
	for _, s := range [][3]uint16{{0, 0, 0}, {1, 1, 1}, {3, 9, 4}, {5, 8, 12}, {7, 13, 37}, {70, 70, 70}, {2, 7, 67}} {
		f.Add(int64(3), s[0], s[1], s[2])
		f.Add(int64(4), s[0], s[1], s[2])
	}
	// Every short block of the multi-row kernels (m mod 4 ≠ 0, m odd) at
	// the bench's k and n.
	for _, m := range []uint16{1, 2, 3, 5, 6, 7} {
		f.Add(int64(5), m, uint16(256), uint16(256))
		f.Add(int64(6), m, uint16(512), uint16(4))
		f.Add(int64(7), m, uint16(4), uint16(512))
	}
	f.Fuzz(func(t *testing.T, seed int64, mm, kk, nn uint16) {
		m, k, n := int(mm), int(kk), int(nn)
		if int64(m)*int64(k)*int64(n) > fuzzMaxWork { // int64: 65535³ overflows a 32-bit int
			m, k, n = m%71, k%71, n%71
		}
		checkKernelsBitEqual(t, seed, m, k, n)
	})
}

// TestMatMulKernelsDegenerateShapes walks every combination of empty,
// below-a-vector and just-above-a-vector dimensions, with m mod 4 taking
// every value at every k and n: the kernels must give the portable
// loops' (zero or empty) result, finish their own short row blocks and
// never index an empty operand.
func TestMatMulKernelsDegenerateShapes(t *testing.T) {
	dims := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33}
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				checkKernelsBitEqual(t, int64(m*100+k*10+n), m, k, n)
			}
		}
	}
}

// BenchmarkMatMulShapes times the three products at every benchShapes
// entry on one goroutine and reports GFLOP/s: the per-shape figure under
// the bench's tensor.matmul_gflops and tensor.matmul_bwd_gflops probes.
//
//	taskset -c 1 go test -run '^$' -bench MatMulShapes ./internal/tensor/
func BenchmarkMatMulShapes(b *testing.B) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(33))
	for _, s := range benchShapes {
		m, k, n := s[0], s[1], s[2]
		a, bb, at, bt, c := uniform(rng, m, k), uniform(rng, k, n), uniform(rng, k, m), uniform(rng, n, k), New(m, n)
		for _, p := range []struct {
			name string
			run  func()
		}{
			{"MatMul", func() { MatMulInto(c, a, bb) }},
			{"TransA", func() { MatMulTransAInto(c, at, bb) }},
			{"TransB", func() { MatMulTransBInto(c, a, bt) }},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, p.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.run()
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
