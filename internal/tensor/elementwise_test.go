package tensor

import (
	"flag"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// exactBits reports the first element whose bit pattern differs, NaN
// payloads included: the rectifier and its mask move bits, they do not
// compute, so even a NaN must come through unchanged.
func exactBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d of %d: kernel %#08x, portable %#08x", label, i, len(want), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// checkElementwiseBitEqual runs the vectorised elementwise kernels on
// n-element operands through their public entry points — out of
// place into garbage, and in place over their first source — and
// through the portable loops, and demands equal bits. Operands start an
// odd number of elements into their allocation; odd seeds salt them
// with ±Inf, NaN and overflowing values on top of ±0 and denormals.
func checkElementwiseBitEqual(t *testing.T, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	salt := finiteAwkward
	if seed&1 == 1 {
		salt = len(awkwardValues)
	}
	a, b := unalignedTensor(rng, salt, n), unalignedTensor(rng, salt, n)
	s := awkwardValues[rng.Intn(salt)]
	if rng.Intn(2) == 0 {
		s = 2*rng.Float32() - 1
	}
	want := New(n)
	// inPlace(a) is a fresh unaligned copy of a for a kernel to overwrite.
	inPlace := func(src *Tensor) *Tensor {
		c := unalignedTensor(rng, 0, n)
		copy(c.Data, src.Data)
		return c
	}
	same := func(label string, got *Tensor) {
		t.Helper()
		if err := sameBits(got, want); err != nil {
			t.Fatalf("%s n=%d seed=%d: %v", label, n, seed, err)
		}
	}

	reluGo(want.Data, a.Data, nil, 0)
	got := unalignedTensor(rng, 0, n)
	Activate(got.Data, a.Data, ActReLU)
	exactBits(t, "Activate(ReLU)", got.Data, want.Data)
	got = inPlace(a)
	ApplyActivation(got.Data, ActReLU)
	exactBits(t, "ApplyActivation(ReLU)", got.Data, want.Data)

	for _, c := range []struct {
		name     string
		act      Activation
		portable func(dst, src []float32, i0 int)
	}{{"tanh", ActTanh, tanhGo}, {"sigmoid", ActSigmoid, sigmoidGo}} {
		c.portable(want.Data, a.Data, 0)
		got = unalignedTensor(rng, 0, n)
		Activate(got.Data, a.Data, c.act)
		exactBits(t, "Activate "+c.name, got.Data, want.Data)
		got = inPlace(a)
		ApplyActivation(got.Data, c.act)
		exactBits(t, "ApplyActivation "+c.name, got.Data, want.Data)
	}

	// The rectifier with its mask gives the portable loop's output and
	// mask bits, and the backward from that mask the portable backward's
	// bits, out of place and over gradOut.
	wantMask := make([]float32, reluMaskLen(n))
	reluGo(want.Data, a.Data, maskBytes(wantMask)[1:], 0)
	got = unalignedTensor(rng, 0, n)
	mask := ReLUWithMask(got.Data, a.Data)
	exactBits(t, "ReLUWithMask", got.Data, want.Data)
	exactBits(t, "ReLUWithMask's mask", mask.Data, wantMask)
	got = inPlace(a)
	inPlaceMask := ReLUWithMask(got.Data, got.Data)
	exactBits(t, "ReLUWithMask in place", got.Data, want.Data)
	exactBits(t, "ReLUWithMask's mask in place", inPlaceMask.Data, wantMask)
	Put(inPlaceMask)
	reluBackwardGo(want.Data, b.Data, maskBytes(wantMask)[1:], 0)
	got = unalignedTensor(rng, 0, n)
	ReLUBackward(got.Data, b.Data, mask.Data)
	exactBits(t, "ReLUBackward", got.Data, want.Data)
	got = inPlace(b)
	ReLUBackward(got.Data, got.Data, mask.Data)
	exactBits(t, "ReLUBackward in place", got.Data, want.Data)
	Put(mask)

	addGo(want.Data, a.Data, b.Data, 0)
	got = unalignedTensor(rng, 0, n)
	AddInto(got.Data, a.Data, b.Data)
	same("AddInto", got)
	same("Tensor.Add", inPlace(a).Add(b))

	addScaledGo(want.Data, a.Data, s, b.Data, 0)
	got = unalignedTensor(rng, 0, n)
	AddScaledInto(got.Data, a.Data, s, b.Data)
	same("AddScaledInto", got)
	same("Tensor.AddScaled", inPlace(a).AddScaled(s, b))

	// AddScaleInto is AddInto and then a scalar multiply, in one pass:
	// the two-pass form is the reference, the portable loop must give
	// its bits and the kernel the portable loop's.
	AddInto(want.Data, a.Data, b.Data)
	for i := range want.Data {
		want.Data[i] *= s
	}
	got = unalignedTensor(rng, 0, n)
	addScaleGo(got.Data, a.Data, b.Data, s, 0)
	same("addScaleGo", got)
	got = unalignedTensor(rng, 0, n)
	AddScaleInto(got.Data, a.Data, b.Data, s)
	same("AddScaleInto", got)
	got = inPlace(a)
	AddScaleInto(got.Data, got.Data, b.Data, s)
	same("AddScaleInto in place", got)

	scaleGo(want.Data, a.Data, s, 0)
	got = unalignedTensor(rng, 0, n)
	ScaleInto(got.Data, a.Data, s)
	same("ScaleInto", got)
	same("Tensor.Scale", inPlace(a).Scale(s))

	// The backward kernels of Tanh, Sigmoid and Dropout: over gradOut as
	// out of place.
	for _, c := range []struct {
		name string
		run  func(dst, gradOut, y []float32)
	}{{"TanhBackward", TanhBackward}, {"SigmoidBackward", SigmoidBackward}, {"MulInto", MulInto}} {
		c.run(want.Data, b.Data, a.Data)
		got = inPlace(b)
		c.run(got.Data, got.Data, a.Data)
		exactBits(t, c.name+" in place", got.Data, want.Data)
	}
}

// elementwiseBenchSizes are the operand lengths the benchmark's
// workloads run the elementwise kernels at: train-comm's 1 MB
// activation, train-compute's [64,256] layer output, train-replicated's
// half-bucket ring chunk and its [4,512] activation.
var elementwiseBenchSizes = []int{16 * 32 * 512, 64 * 256, 512 * 512 / 2, 4 * 512}

// FuzzElementwiseKernelsBitEqual is the standing gate of the kernel
// contract for the elementwise kernels (elementwise.go): whatever the
// host selected produces the bits the portable loops produce.
func FuzzElementwiseKernelsBitEqual(f *testing.F) {
	for _, n := range elementwiseBenchSizes {
		f.Add(int64(1), uint32(n))
		f.Add(int64(2), uint32(n))
	}
	for n := 0; n <= 70; n++ {
		f.Add(int64(3), uint32(n))
		f.Add(int64(4), uint32(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, nn uint32) {
		n := int(nn)
		if n > elementwiseBenchSizes[0] {
			n %= 71
		}
		checkElementwiseBitEqual(t, seed, n)
	})
}

var exhaustive = flag.Bool("tensor.exhaustive", false, "TestTanhSigmoidBitEqual sweeps all 2^32 float32 inputs, not every 251st")

// checkActivationBits demands that Activate(tanh) and Activate(sigmoid)
// return exactly the bits of Tanh32 and Sigmoid32 for every input in
// src, NaN payloads included.
func checkActivationBits(t *testing.T, src []float32) {
	dst := make([]float32, len(src))
	for _, c := range []struct {
		name string
		act  Activation
		def  func(float32) float32
	}{{"tanh", ActTanh, Tanh32}, {"sigmoid", ActSigmoid, Sigmoid32}} {
		Activate(dst, src, c.act)
		for i, v := range src {
			if want := c.def(v); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Errorf("%s(%#08x = %g): Activate %#08x, definition %#08x", c.name, math.Float32bits(v), v, math.Float32bits(dst[i]), math.Float32bits(want))
				break
			}
		}
	}
}

// TestTanhSigmoidBitEqual holds whatever Activate selected on this host
// for tanh and sigmoid to their scalar definitions: on every 251st
// float32 bit pattern (all 2^32 with -tensor.exhaustive), sharded over
// GOMAXPROCS, and on the inputs around which either the definitions or
// the vector bodies branch, clamp or change exponent. The vector bodies
// mirror the toolchain's archExp, so this is also the test that fails
// if a toolchain bump moves a float32 result of math.Exp or math.Tanh.
func TestTanhSigmoidBitEqual(t *testing.T) {
	const block = 4096
	stride := uint64(251)
	if *exhaustive {
		stride = 1
	}
	blocks := (1<<32 + block*stride - 1) / (block * stride)
	shards := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := uint64(0); w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]float32, 0, block)
			for b := w; b < blocks && !t.Failed(); b += shards {
				src = src[:0]
				for p := b * block * stride; p < 1<<32 && len(src) < block; p += stride {
					src = append(src, math.Float32frombits(uint32(p)))
				}
				checkActivationBits(t, src)
			}
		}()
	}
	wg.Wait()

	// ±4096 ulps of: 0 (so ±0 and denormals), tanh's 0.625 and
	// 0.5·MAXLOG, the ±128 the sigmoid body clamps at, 103.97 where
	// sigmoid reaches +0, archExp's overflow (709.78), denormal (-708.4)
	// and underflow (-745.13) arguments, ±Inf and the first NaNs; then
	// both sides of every exponent boundary and 1,024 NaN payloads.
	var src []float32
	add := func(patterns ...uint32) {
		for _, p := range patterns {
			src = append(src, math.Float32frombits(p))
		}
	}
	for _, v := range []float32{0, 0.625, 44.014845, 103.97208, 128, 708.3964, 709.7827, 745.1332, float32(math.Inf(1))} {
		for d := -4096; d <= 4096; d++ {
			p := (math.Float32bits(v) + uint32(d)) &^ (1 << 31)
			add(p, p|1<<31)
		}
	}
	for e := uint32(0); e < 512; e++ {
		add(e<<23-1, e<<23, e<<23+1)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1024; i++ {
		add(0x7f800000 | rng.Uint32()&^0x7f800000 | uint32(i&1)<<22)
	}
	checkActivationBits(t, src)
}

// Every kernel a layer runs in place (nn's elementwise layers, the sum
// join) against its definition, with dst its first source, on every
// length 0–67, so the vector kernels' tails are covered.
func TestElementwiseKernelsMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rectify := func(v float32) float32 {
		if v <= 0 {
			return 0
		}
		return v
	}
	for n := 0; n <= 67; n++ {
		g, y := unalignedTensor(rng, len(awkwardValues), n), unalignedTensor(rng, len(awkwardValues), n)
		mask := ReLUWithMask(make([]float32, n), y.Data)
		want, got := New(n), New(n)
		for _, c := range []struct {
			name string
			def  func(g, y float32) float32
			run  func(dst []float32)
		}{
			{"TanhBackward", func(g, y float32) float32 { return g * (1 - y*y) }, func(dst []float32) { TanhBackward(dst, dst, y.Data) }},
			{"SigmoidBackward", func(g, y float32) float32 { return g * (y * (1 - y)) }, func(dst []float32) { SigmoidBackward(dst, dst, y.Data) }},
			{"MulInto", func(g, y float32) float32 { return g * y }, func(dst []float32) { MulInto(dst, dst, y.Data) }},
			{"AddInto", func(g, y float32) float32 { return g + y }, func(dst []float32) { AddInto(dst, dst, y.Data) }},
			{"Activate(Tanh)", func(g, _ float32) float32 { return Tanh32(g) }, func(dst []float32) { Activate(dst, dst, ActTanh) }},
			{"Activate(Sigmoid)", func(g, _ float32) float32 { return Sigmoid32(g) }, func(dst []float32) { Activate(dst, dst, ActSigmoid) }},
			{"Activate(ReLU)", func(g, _ float32) float32 { return rectify(g) }, func(dst []float32) { Activate(dst, dst, ActReLU) }},
			{"Activate(None)", func(g, _ float32) float32 { return g }, func(dst []float32) { Activate(dst, dst, ActNone) }},
			{"ReLUWithMask", func(g, _ float32) float32 { return rectify(g) }, func(dst []float32) { Put(ReLUWithMask(dst, dst)) }},
			{"ReLUBackward", func(g, y float32) float32 {
				if y <= 0 {
					return 0
				}
				return g
			}, func(dst []float32) { ReLUBackward(dst, dst, mask.Data) }},
		} {
			for i := range want.Data {
				want.Data[i] = c.def(g.Data[i], y.Data[i])
			}
			copy(got.Data, g.Data)
			c.run(got.Data)
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
		}
		Put(mask)
	}
}

// The rectifier with its mask, and the backward from that mask, against
// their definitions — keep = !(x <= 0), bit i%8 of mask byte 1+i/8, byte 0
// zero — on every length 0–70 and a few past the vector blocks, operands
// starting one to seven elements into their allocation, over ±0, ±Inf,
// denormals and NaN payloads (the pool's poison among them), out of place
// and with the backward over gradOut. Whatever ran (AVX2, the portable
// loop on 386 or past the vector blocks), no mask can read as released
// to the poisoned pool: bytes 1–3 of its first element are the poison's
// for the input chosen last, and Put accepts it.
func TestReLUMaskMatchesDefinition(t *testing.T) {
	defer PoisonOnPut(PoisonOnPut(true))
	specials := []uint32{0, 1 << 31, 1, 1<<31 | 1, 0x007fffff, 0x807fffff, 0x7f800000, 0xff800000,
		poisonBits, poisonBits | 1<<31, 0x7fc00000, 0xffc00000, 0x7f800001, 0xffffffff, 0x3f800000, 0xbf800000}
	rng := rand.New(rand.NewSource(35))
	fill := func(n int) []float32 {
		off := 1 + rng.Intn(7)
		s := make([]float32, off+n)[off:]
		for i := range s {
			s[i] = 2*rng.Float32() - 1
			if rng.Intn(3) == 0 {
				s[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
			}
		}
		return s
	}
	check := func(x []float32) {
		t.Helper()
		n := len(x)
		g := fill(n)
		y := fill(n)
		mask := ReLUWithMask(y, x)
		bits := maskBytes(mask.Data)
		if len(mask.Data) != reluMaskLen(n) || bits[0] != 0 {
			t.Fatalf("n=%d: mask of %d elements, byte 0 %#x", n, len(mask.Data), bits[0])
		}
		back, inPlace := fill(n), append([]float32(nil), g...)
		ReLUBackward(back, g, mask.Data)
		ReLUBackward(inPlace, inPlace, mask.Data)
		for i, v := range x {
			keep := !(v <= 0)
			wantY, wantG := float32(0), float32(0)
			if keep {
				wantY, wantG = v, g[i]
			}
			if bit := bits[1+i/8]>>(i%8)&1 == 1; bit != keep {
				t.Fatalf("n=%d element %d (%#08x): mask bit %v, want %v", n, i, math.Float32bits(v), bit, keep)
			}
			for _, c := range []struct {
				what      string
				got, want float32
			}{{"output", y[i], wantY}, {"gradient", back[i], wantG}, {"gradient in place", inPlace[i], wantG}} {
				if math.Float32bits(c.got) != math.Float32bits(c.want) {
					t.Fatalf("n=%d element %d (%#08x): %s %#08x, want %#08x", n, i, math.Float32bits(v), c.what, math.Float32bits(c.got), math.Float32bits(c.want))
				}
			}
		}
		Put(mask)
	}
	for n := 0; n <= 70; n++ {
		check(fill(n))
	}
	for _, n := range []int{255, 256, 257, 4099} {
		check(fill(n))
	}
	x := make([]float32, 40)
	for i := range x {
		x[i] = -1
		if poisonBits>>(8+i)&1 == 1 {
			x[i] = 1
		}
	}
	check(x)
}

// A destination that straddles a source — neither the source itself nor
// disjoint from it — is refused, as is a length mismatch, a ReLU mask of
// the wrong length and one that shares an element with an operand.
func TestElementwiseRejectsPartialOverlap(t *testing.T) {
	buf := make([]float32, 40)
	other := make([]float32, 32)
	mask := make([]float32, reluMaskLen(32))
	for name, call := range map[string]func(){
		"AddInto dst/a":             func() { AddInto(buf[1:33], buf[0:32], other) },
		"AddInto dst/b":             func() { AddInto(buf[0:32], other, buf[8:40]) },
		"AddScaledInto":             func() { AddScaledInto(buf[4:36], other, 2, buf[0:32]) },
		"AddScaleInto":              func() { AddScaleInto(buf[4:36], other, buf[0:32], 2) },
		"ScaleInto":                 func() { ScaleInto(buf[1:33], buf[0:32], 2) },
		"Activate":                  func() { Activate(buf[0:32], buf[1:33], ActReLU) },
		"ReLUWithMask":              func() { ReLUWithMask(buf[0:32], buf[4:36]) },
		"ReLUBackward":              func() { ReLUBackward(buf[0:32], buf[2:34], mask) },
		"ReLUBackward short mask":   func() { ReLUBackward(buf[0:32], other, mask[:1]) },
		"ReLUBackward long mask":    func() { ReLUBackward(buf[0:32], other, buf[32:35]) },
		"ReLUBackward mask/dst":     func() { ReLUBackward(buf[0:32], other, buf[31:33]) },
		"ReLUBackward mask/gradOut": func() { ReLUBackward(other, buf[0:32], buf[30:32]) },
		"MulInto":                   func() { MulInto(buf[3:35], buf[0:32], other) },
		"AddInto short":             func() { AddInto(buf[0:32], other, other[:31]) },
		"TanhBackward short":        func() { TanhBackward(buf[0:31], other, other) },
		"SigmoidBackward mix":       func() { SigmoidBackward(buf[0:32], buf[16:40][:24], other) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func benchmarkElementwise(b *testing.B, n int, run func(dst, x, y []float32)) {
	rng := rand.New(rand.NewSource(1))
	x, y, dst := unalignedTensor(rng, 0, n), unalignedTensor(rng, 0, n), unalignedTensor(rng, 0, n)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(dst.Data, x.Data, y.Data)
	}
}

func BenchmarkReLU1MB(b *testing.B) {
	benchmarkElementwise(b, elementwiseBenchSizes[0], func(dst, x, _ []float32) { Activate(dst, x, ActReLU) })
}

// benchmarkActivation times Activate over 64K inputs spread over
// [-2, 2], so both arms of tanh are taken.
func benchmarkActivation(b *testing.B, act Activation) {
	rng := rand.New(rand.NewSource(1))
	x, dst := unalignedTensor(rng, 0, 64*1024), unalignedTensor(rng, 0, 64*1024)
	x.Scale(2)
	b.SetBytes(int64(4 * x.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Activate(dst.Data, x.Data, act)
	}
}

func BenchmarkTanh64K(b *testing.B)    { benchmarkActivation(b, ActTanh) }
func BenchmarkSigmoid64K(b *testing.B) { benchmarkActivation(b, ActSigmoid) }

func BenchmarkReLUWithMask1MB(b *testing.B) {
	benchmarkElementwise(b, elementwiseBenchSizes[0], func(dst, x, _ []float32) { Put(ReLUWithMask(dst, x)) })
}

func BenchmarkReLUBackward1MB(b *testing.B) {
	n := elementwiseBenchSizes[0]
	mask := ReLUWithMask(make([]float32, n), unalignedTensor(rand.New(rand.NewSource(2)), 0, n).Data)
	benchmarkElementwise(b, n, func(dst, g, _ []float32) { ReLUBackward(dst, g, mask.Data) })
}

func BenchmarkAdd1MB(b *testing.B) {
	benchmarkElementwise(b, elementwiseBenchSizes[0], func(dst, x, _ []float32) { AddInto(dst, dst, x) })
}

func BenchmarkAddScaled1MB(b *testing.B) {
	benchmarkElementwise(b, elementwiseBenchSizes[0], func(dst, x, _ []float32) { AddScaledInto(dst, dst, 0.5, x) })
}

// The last reduce-scatter step of train-replicated's ring, on its
// half-bucket chunk.
func BenchmarkAddScaleRingChunk(b *testing.B) {
	benchmarkElementwise(b, elementwiseBenchSizes[2], func(dst, x, _ []float32) { AddScaleInto(dst, dst, x, 0.5) })
}
