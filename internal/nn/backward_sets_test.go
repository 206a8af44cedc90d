package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// gradBits runs one forward and backward of model on x (the gradient
// fed in is the same every call) and returns the bit patterns of every
// parameter gradient.
func gradBits(model *nn.Sequential, x *tensor.Tensor) []uint32 {
	y, ctx := model.Forward(x, true)
	model.Backward(ctx, tensor.Randn(rand.New(rand.NewSource(6)), 1, y.Shape...))
	return nn.BitsOf(model.Grads()...)
}

// zeroThenAdd is how Dense and Conv2D wrote a gradient while Backward
// still accumulated: the caller zeroed it, the layer computed the term in
// scratch and added it on.
func zeroThenAdd(term *tensor.Tensor) *tensor.Tensor {
	return tensor.New(term.Shape...).Add(term)
}

// Backward sets parameter gradients (the Layer contract): whatever they
// held — here the pool's signalling NaN, then the previous backward's
// gradient — each pass leaves the bits the old contract gave, under which
// the caller zeroed them first and Backward added. A layer that still
// counts on zeroed gradients returns NaNs on the first pass; one that adds
// to what it finds returns twice the gradient on the second. Every layer
// type of the package is in one of the ownership stacks, and every
// modelzoo stand-in runs too. Two models built alike draw the same dropout
// masks, so each pass compares like with like.
func TestBackwardSetsGrads(t *testing.T) {
	builds := map[string]func() (*nn.Sequential, *tensor.Tensor){}
	for name, build := range nn.OwnershipStacks {
		builds[name] = func() (*nn.Sequential, *tensor.Tensor) { return build(rand.New(rand.NewSource(5))) }
	}
	for _, s := range modelzoo.StandIns(3) {
		builds["modelzoo/"+s.Name] = func() (*nn.Sequential, *tensor.Tensor) { return s.Factory(), s.Train.Batch(0).X }
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			zeroed, x := build()
			set, _ := build()
			for _, g := range set.Grads() {
				g.Fill(math.Float32frombits(0x7fa0dead))
			}
			var first []uint32
			for pass := 0; pass < 2; pass++ {
				for _, g := range zeroed.Grads() {
					g.Zero() // the old contract's caller
				}
				want, got := gradBits(zeroed, x), gradBits(set, x)
				nn.SameBits(t, fmt.Sprintf("pass %d against zero-then-backward", pass), got, want)
				if pass == 0 {
					first = got
				} else if name != "identity-middle" { // its dropout mask differs per forward
					nn.SameBits(t, "second backward against the first", got, first)
				}
			}
		})
	}
}

// Dense and Conv2D hand their gradient tensors straight to the product
// and row-sum kernels; the bits are those of the product added onto a
// zeroed gradient. Zeros of both signs among the operands make 0 + x
// against x a question the test actually asks.
func TestDirectGradsMatchZeroThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	salt := func(x *tensor.Tensor) *tensor.Tensor {
		negZero := float32(math.Copysign(0, -1))
		for i := range x.Data {
			switch rng.Intn(4) {
			case 0:
				x.Data[i] = 0
			case 1:
				x.Data[i] = negZero
			}
		}
		return x
	}
	t.Run("dense", func(t *testing.T) {
		d := nn.NewDense(rng, "d", 9, 7)
		x, g := salt(tensor.Randn(rng, 1, 5, 9)), salt(tensor.Randn(rng, 1, 5, 7))
		_, ctx := d.Forward(x, true)
		d.Backward(ctx, g)
		nn.SameBits(t, "GW", nn.BitsOf(d.GW), nn.BitsOf(zeroThenAdd(tensor.MatMulTransA(x, g))))
		nn.SameBits(t, "GB", nn.BitsOf(d.GB), nn.BitsOf(zeroThenAdd(tensor.SumRowsInto(tensor.New(7), g))))
	})
	t.Run("conv", func(t *testing.T) {
		geom := tensor.ConvGeom{InC: 2, InH: 5, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		const b, outC = 3, 4
		c := nn.NewConv2D(rng, "c", geom, outC)
		oh, ow := geom.OutH(), geom.OutW()
		x, g := salt(tensor.Randn(rng, 1, b, geom.InC, geom.InH, geom.InW)), salt(tensor.Randn(rng, 1, b, outC, oh, ow))
		_, ctx := c.Forward(x, true)
		c.Backward(ctx, g)
		gflat := tensor.New(b*oh*ow, outC) // [B, OutC, OH, OW] → [B·OH·OW, OutC]
		for n := 0; n < b; n++ {
			for oc := 0; oc < outC; oc++ {
				for p := 0; p < oh*ow; p++ {
					gflat.Data[(n*oh*ow+p)*outC+oc] = g.Data[(n*outC+oc)*oh*ow+p]
				}
			}
		}
		cols := tensor.Im2ColInto(tensor.New(b*oh*ow, c.W.Dim(0)), x, geom)
		nn.SameBits(t, "GW", nn.BitsOf(c.GW), nn.BitsOf(zeroThenAdd(tensor.MatMulTransA(cols, gflat))))
		nn.SameBits(t, "GB", nn.BitsOf(c.GB), nn.BitsOf(zeroThenAdd(tensor.SumRowsInto(tensor.New(outC), gflat))))
	})
}
