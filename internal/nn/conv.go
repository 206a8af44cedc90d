package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, InC, H, W] inputs. The forward
// pass is one direct kernel (tensor.ConvBiasActInto: no im2col panel, no
// transpose, bias and activation in its epilogue); the backward pass
// lowers to im2col + matmul, the lowering GPU frameworks use.
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
	g.Check()
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

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape returns the output spatial shape [OutC, OutH, OutW].
func (c *Conv2D) OutShape() (int, int, int) { return c.OutC, c.Geom.OutH(), c.Geom.OutW() }

// shapes checks x and returns the shapes of its output and kernel scratch.
func (c *Conv2D) shapes(x *tensor.Tensor) (y, pad [4]int) {
	g := c.Geom
	if x.NumDims() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,%d,%d,%d]", c.name, x.Shape, g.InC, g.InH, g.InW))
	}
	return [4]int{x.Dim(0), c.OutC, g.OutH(), g.OutW()}, [4]int{x.Dim(0), g.InC, g.PadH(), g.PadW()}
}

// Forward implements Layer. The context is the input tensor itself, as
// Dense's is: the layer keeps nothing of its own for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	yShape, padShape := c.shapes(x)
	pad := tensor.GetRaw(padShape[:]...)
	y := tensor.ConvBiasActInto(tensor.GetRaw(yShape[:]...), pad, x, c.W, c.B, c.Geom, tensor.ActNone)
	tensor.Put(pad)
	return y, x
}

// Backward implements Layer: the parameter half, then the input half.
func (c *Conv2D) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(ctx, gradOut)
	return c.backwardInput(ctx, gradOut)
}

// flatGrad returns the input and gradOut pooled in layout [B*OH*OW, OutC].
func (c *Conv2D) flatGrad(ctx Context, gradOut *tensor.Tensor) (x, gflat *tensor.Tensor) {
	x = ctx.(*tensor.Tensor)
	b := x.Dim(0)
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	if gradOut.NumDims() != 4 || gradOut.Dim(0) != b || gradOut.Dim(1) != c.OutC {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d,%d,%d]", c.name, gradOut.Shape, b, c.OutC, oh, ow))
	}
	gflat = tensor.GetRaw(b*oh*ow, c.OutC)
	for n := 0; n < b; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := gradOut.Data[(n*c.OutC+oc)*oh*ow:]
			for p := 0; p < oh*ow; p++ {
				gflat.Data[(n*oh*ow+p)*c.OutC+oc] = src[p]
			}
		}
	}
	return x, gflat
}

// backwardInput returns col2im(gflat · Wᵀ), the input gradient.
func (c *Conv2D) backwardInput(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	x, gflat := c.flatGrad(ctx, gradOut)
	cols := tensor.MatMulTransBInto(tensor.GetRaw(gflat.Dim(0), c.W.Dim(0)), gflat, c.W)
	tensor.Put(gflat)
	gradIn := tensor.Col2ImInto(tensor.Get(x.Dim(0), c.Geom.InC, c.Geom.InH, c.Geom.InW), cols, c.Geom)
	tensor.Put(cols)
	return gradIn
}

// backwardParams sets GW = colsᵀ · gflat over the input's im2col panel
// and GB to gflat's row sums.
func (c *Conv2D) backwardParams(ctx Context, gradOut *tensor.Tensor) {
	x, gflat := c.flatGrad(ctx, gradOut)
	cols := tensor.Im2ColInto(tensor.GetRaw(gflat.Dim(0), c.W.Dim(0)), x, c.Geom)
	tensor.MatMulTransAInto(c.GW, cols, gflat)
	tensor.SumRowsInto(c.GB, gflat)
	tensor.Put(cols)
	tensor.Put(gflat)
}

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
	g.Check()
	return &MaxPool2D{name: name, Geom: g}
}

type poolCtx struct {
	idx     []int
	inShape [4]int
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y := tensor.GetRaw(x.Dim(0), m.Geom.InC, m.Geom.OutH(), m.Geom.OutW())
	idx := make([]int, y.Size())
	tensor.MaxPoolInto(y, idx, x, m.Geom)
	return y, poolCtx{idx: idx, inShape: [4]int(x.Shape)}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(poolCtx)
	return tensor.MaxPoolBackwardInto(tensor.Get(c.inShape[:]...), gradOut, c.idx)
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (m *MaxPool2D) Grads() []*tensor.Tensor { return nil }
