package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, InC, H, W] inputs implemented via
// im2col + matmul, the same lowering GPU frameworks use.
type Conv2D struct {
	name   string
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Tensor // [InC*KH*KW, OutC]
	B      *tensor.Tensor // [OutC]
	GW, GB *tensor.Tensor
}

// NewConv2D creates a convolution layer with He initialization.
func NewConv2D(rng *rand.Rand, name string, g tensor.ConvGeom, outC int) *Conv2D {
	fanIn := g.InC * g.KH * g.KW
	scale := math.Sqrt(2.0 / float64(fanIn))
	return &Conv2D{
		name: name,
		Geom: g,
		OutC: outC,
		W:    tensor.Randn(rng, scale, fanIn, outC),
		B:    tensor.New(outC),
		GW:   tensor.New(fanIn, outC),
		GB:   tensor.New(outC),
	}
}

type convCtx struct {
	cols  *tensor.Tensor // pooled; recycled by Backward
	batch int
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape returns the output spatial shape [OutC, OutH, OutW].
func (c *Conv2D) OutShape() (int, int, int) { return c.OutC, c.Geom.OutH(), c.Geom.OutW() }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	b := x.Dim(0)
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	fanIn := c.Geom.InC * c.Geom.KH * c.Geom.KW
	cols := tensor.GetRaw(b*oh*ow, fanIn) // stashed for backward
	tensor.Im2ColInto(cols, x, c.Geom)
	flat := tensor.GetRaw(b*oh*ow, c.OutC)
	// Matmul with the bias-add fused into the epilogue (bit-identical
	// to MatMulInto + AddRowVector).
	tensor.MatMulBiasActInto(flat, cols, c.W, c.B, tensor.ActNone)
	// flat is laid out [B, OH, OW, OutC]; convert to [B, OutC, OH, OW].
	y := tensor.GetRaw(b, c.OutC, oh, ow)
	convTransposeOut(y.Data, flat.Data, b, c.OutC, oh*ow)
	tensor.Put(flat)
	return y, &convCtx{cols: cols, batch: b}
}

// convTransposeOut converts the matmul's [B, P, OutC] layout to the
// NCHW [B, OutC, P] layout (P = OH·OW).
func convTransposeOut(dst, src []float32, b, outC, p int) {
	for n := 0; n < b; n++ {
		for q := 0; q < p; q++ {
			s := src[(n*p+q)*outC:]
			for oc := 0; oc < outC; oc++ {
				dst[(n*outC+oc)*p+q] = s[oc]
			}
		}
	}
}

// ForwardInfer implements InferLayer: im2col panel, fused
// matmul+bias, and the NCHW transpose all run out of the arena.
func (c *Conv2D) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	b := x.Dim(0)
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	fanIn := c.Geom.InC * c.Geom.KH * c.Geom.KW
	cols := a.GetRaw(b*oh*ow, fanIn)
	tensor.Im2ColInto(cols, x, c.Geom)
	flat := a.GetRaw(b*oh*ow, c.OutC)
	tensor.MatMulBiasActInto(flat, cols, c.W, c.B, tensor.ActNone)
	y := a.GetRaw(b, c.OutC, oh, ow)
	convTransposeOut(y.Data, flat.Data, b, c.OutC, oh*ow)
	return y
}

// Backward implements Layer. It recycles the stashed im2col panel.
func (c *Conv2D) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	cc := ctx.(*convCtx)
	b := cc.batch
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	if gradOut.NumDims() != 4 || gradOut.Dim(0) != b || gradOut.Dim(1) != c.OutC {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d,%d,%d]", c.name, gradOut.Shape, b, c.OutC, oh, ow))
	}
	// Convert gradOut [B, OutC, OH, OW] back to flat layout [B*OH*OW, OutC].
	gflat := tensor.GetRaw(b*oh*ow, c.OutC)
	for n := 0; n < b; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := gradOut.Data[(n*c.OutC+oc)*oh*ow:]
			for p := 0; p < oh*ow; p++ {
				gflat.Data[(n*oh*ow+p)*c.OutC+oc] = src[p]
			}
		}
	}
	addMatMulTransA(c.GW, cc.cols, gflat)
	addSumRows(c.GB, gflat)
	gcols := tensor.GetRaw(b*oh*ow, c.Geom.InC*c.Geom.KH*c.Geom.KW)
	tensor.MatMulTransBInto(gcols, gflat, c.W) // gflat · Wᵀ = [B*OH*OW, fanIn]
	tensor.Put(gflat)
	gradIn := tensor.Col2ImInto(tensor.Get(b, c.Geom.InC, c.Geom.InH, c.Geom.InW), gcols, c.Geom)
	tensor.Put(gcols)
	c.discard(cc)
	return gradIn
}

// discard implements contextDiscarder.
func (c *Conv2D) discard(ctx Context) { tensor.Put(ctx.(*convCtx).cols) }

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.GW, c.GB} }

// MaxPool2D is a max-pooling layer over [B, C, H, W].
type MaxPool2D struct {
	name string
	Geom tensor.ConvGeom
}

// NewMaxPool2D creates a max-pooling layer.
func NewMaxPool2D(name string, g tensor.ConvGeom) *MaxPool2D {
	return &MaxPool2D{name: name, Geom: g}
}

type poolCtx struct {
	idx     []int
	inShape []int
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y := tensor.GetRaw(x.Dim(0), m.Geom.InC, m.Geom.OutH(), m.Geom.OutW())
	idx := make([]int, y.Size())
	tensor.MaxPoolInto(y, idx, x, m.Geom)
	return y, poolCtx{idx: idx, inShape: x.Shape}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(poolCtx)
	return tensor.MaxPoolBackwardInto(tensor.Get(c.inShape...), gradOut, c.idx)
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (m *MaxPool2D) Grads() []*tensor.Tensor { return nil }
