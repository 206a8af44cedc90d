package tensor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// lowerConvBiasAct is the lowering ConvBiasActInto replaced and is
// specified to equal bit for bit: an im2col panel, the fused product
// with the kernel matrix, and the [B, P, OutC] → NCHW transpose.
func lowerConvBiasAct(dst, in, w, bias *Tensor, g ConvGeom, act Activation) {
	b, p, outC := in.Shape[0], g.OutH()*g.OutW(), w.Shape[1]
	flat := MatMulBiasActInto(New(b*p, outC), im2Col(in, g), w, bias, act)
	for n := 0; n < b; n++ {
		for q := 0; q < p; q++ {
			for oc := 0; oc < outC; oc++ {
				dst.Data[(n*outC+oc)*p+q] = flat.Data[(n*p+q)*outC+oc]
			}
		}
	}
}

// portableConvBiasAct is ConvBiasActInto with every column left to the
// portable loop.
func portableConvBiasAct(dst, in, w, bias *Tensor, g ConvGeom, act Activation) {
	b, outC := in.Shape[0], w.Shape[1]
	inLen, outLen := in.Size()/b, dst.Size()/b
	img, taps := make([]float32, g.InC*g.PadH()*g.PadW()), g.appendTaps(nil)
	for n := 0; n < b; n++ {
		out := dst.Data[n*outLen : (n+1)*outLen]
		g.padImage(img, in.Data[n*inLen:(n+1)*inLen])
		var biasData []float32
		if bias != nil {
			biasData = bias.Data
		}
		convImageGo(out, img, w.Data, biasData, taps, outC, g, 0)
		ApplyActivation(out, act)
	}
}

// checkConvBitEqual convolves one salted batch (see unalignedTensor)
// through the public entry point, through the portable loop and through
// the lowering, with every activation, with and without a bias, at
// kernel parallelism 1 and 2, and demands equal bits.
func checkConvBitEqual(t *testing.T, seed int64, b, outC int, g ConvGeom) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	salt := finiteAwkward
	if seed&1 == 1 {
		salt = len(awkwardValues)
	}
	in := unalignedTensor(rng, salt, b, g.InC, g.InH, g.InW)
	w, bias := unalignedTensor(rng, salt, g.InC*g.KH*g.KW, outC), unalignedTensor(rng, salt, outC)
	// Garbage the kernel must overwrite.
	padded := unalignedTensor(rng, 0, b, g.InC, g.PadH(), g.PadW())
	got := unalignedTensor(rng, 0, b, outC, g.OutH(), g.OutW())
	portable, lowered := New(got.Shape...), New(got.Shape...)
	defer SetParallelism(Parallelism())
	for _, par := range []int{1, 2} {
		SetParallelism(par)
		for _, act := range []Activation{ActNone, ActReLU, ActTanh, ActSigmoid} {
			for _, bs := range []*Tensor{nil, bias} {
				ConvBiasActInto(got, padded, in, w, bs, g, act)
				portableConvBiasAct(portable, in, w, bs, g, act)
				lowerConvBiasAct(lowered, in, w, bs, g, act)
				for name, want := range map[string]*Tensor{"the portable loop": portable, "im2col + matmul": lowered} {
					if err := sameBits(got, want); err != nil {
						t.Fatalf("batch %d → %d channels, %+v, act=%d bias=%v seed=%d par=%d: against %s: %v",
							b, outC, g, act, bs != nil, seed, par, name, err)
					}
				}
			}
		}
	}
}

// TestConvKernelBitEqual walks the shapes where a row kernel's blocks of
// eight, four and leftover columns, its blocks of four and leftover
// channels, and the eight-tap groups all begin and end: output widths 1
// to 13, channel counts off every multiple of four, strides the vector
// kernel does not take, padding at and beyond the window (whole windows
// in the border), a 1×1 image, non-square windows, and the two images
// convolutions the benchmark serves, which are large enough to split
// across workers.
func TestConvKernelBitEqual(t *testing.T) {
	seed := int64(0)
	for _, c := range []struct {
		b, outC int
		g       ConvGeom
	}{
		{16, 8, ConvGeom{InC: 1, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{16, 8, ConvGeom{InC: 8, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{5, 7, ConvGeom{InC: 3, InH: 9, InW: 13, KH: 3, KW: 3, Stride: 1, Pad: 1}},
		{2, 6, ConvGeom{InC: 6, InH: 10, InW: 10, KH: 2, KW: 2, Stride: 2}},
		{1, 1, ConvGeom{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1}},
		{3, 5, ConvGeom{InC: 2, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 2}},
		{2, 9, ConvGeom{InC: 5, InH: 4, InW: 7, KH: 1, KW: 5, Stride: 1, Pad: 2}},
		{4, 3, ConvGeom{InC: 2, InH: 7, InW: 3, KH: 5, KW: 2, Stride: 1, Pad: 2}},
		{1, 4, ConvGeom{InC: 9, InH: 5, InW: 8, KH: 2, KW: 1, Stride: 1}},
		{3, 13, ConvGeom{InC: 1, InH: 6, InW: 20, KH: 3, KW: 3, Stride: 3, Pad: 1}},
	} {
		seed += 2
		checkConvBitEqual(t, seed, c.b, c.outC, c.g)
		checkConvBitEqual(t, seed+1, c.b, c.outC, c.g)
	}
	for _, ow := range []int{1, 3, 7, 8, 12, 13} {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2; pad++ {
				seed++
				g := ConvGeom{InC: 3, InH: 4, InW: (ow-1)*stride + 3 - 2*pad, KH: 2, KW: 3, Stride: stride, Pad: pad}
				if g.InW < 1 {
					continue
				}
				checkConvBitEqual(t, seed, 1+int(seed%5), 1+int(seed%11), g)
			}
		}
	}
}

// FuzzConvKernelBitEqual is the standing gate of the convolution's
// kernel contract: whatever kernel the host selected gives the bits of
// the portable loop and of the lowering, at any geometry.
func FuzzConvKernelBitEqual(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(8), uint8(8), uint8(12), uint8(12), uint8(3), uint8(3), uint8(1), uint8(1))
	f.Add(int64(2), uint8(16), uint8(8), uint8(1), uint8(12), uint8(12), uint8(3), uint8(3), uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(6), uint8(6), uint8(10), uint8(10), uint8(2), uint8(2), uint8(2), uint8(0))
	f.Add(int64(4), uint8(1), uint8(5), uint8(3), uint8(1), uint8(30), uint8(1), uint8(7), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, b, outC, inC, inH, inW, kh, kw, stride, pad uint8) {
		g := ConvGeom{InC: 1 + int(inC%12), InH: 1 + int(inH%20), InW: 1 + int(inW%40),
			KH: 1 + int(kh%5), KW: 1 + int(kw%9), Stride: 1 + int(stride%3), Pad: int(pad % 4)}
		if g.KH > g.PadH() || g.KW > g.PadW() {
			t.Skip()
		}
		checkConvBitEqual(t, seed, 1+int(b%6), 1+int(outC%13), g)
	})
}

// TestConvGeomCheckNamesTheField: a geometry a kernel would index out of
// range with is refused, by field.
func TestConvGeomCheckNamesTheField(t *testing.T) {
	ok := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ok.Check()
	for want, mutate := range map[string]func(*ConvGeom){
		"InC must":    func(g *ConvGeom) { g.InC = 0 },
		"InH must":    func(g *ConvGeom) { g.InH = -4 },
		"InW must":    func(g *ConvGeom) { g.InW = 0 },
		"KH must":     func(g *ConvGeom) { g.KH = 0 },
		"KW must":     func(g *ConvGeom) { g.KW = -1 },
		"Stride must": func(g *ConvGeom) { g.Stride = 0 },
		"Pad must":    func(g *ConvGeom) { g.Pad = -1 },
		// (2-3)/2+1 = 1 in integer arithmetic: not an output.
		"empty output": func(g *ConvGeom) { *g = ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 2} },
	} {
		g := ok
		mutate(&g)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("%+v: Check said %q, want it to say %q", g, msg, want)
				}
			}()
			g.Check()
		}()
	}
}
