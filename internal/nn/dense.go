package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b for x [B, in] → y [B, out].
type Dense struct {
	name   string
	W, B   *tensor.Tensor
	GW, GB *tensor.Tensor
}

// NewDense creates a Dense layer with Xavier/Glorot initialization.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	scale := math.Sqrt(2.0 / float64(in+out))
	return &Dense{
		name: name,
		W:    tensor.Randn(rng, scale, in, out),
		B:    tensor.New(out),
		GW:   tensor.New(in, out),
		GB:   tensor.New(out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

func (d *Dense) checkInput(x *tensor.Tensor) {
	if x.NumDims() != 2 || x.Dim(1) != d.W.Dim(0) {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,%d]", d.name, x.Shape, d.W.Dim(0)))
	}
}

// Forward implements Layer. The matmul and bias-add run as one fused
// kernel; the context is the input tensor itself (pointer-in-interface,
// no allocation).
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	d.checkInput(x)
	y := tensor.GetRaw(x.Dim(0), d.W.Dim(1))
	tensor.MatMulBiasActInto(y, x, d.W, d.B, tensor.ActNone)
	return y, x
}

// Backward implements Layer: the parameter half, then the input half.
func (d *Dense) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(ctx, gradOut)
	return d.backwardInput(ctx, gradOut)
}

// backwardInput returns gradOut · Wᵀ, the gradient of the input.
func (d *Dense) backwardInput(_ Context, gradOut *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulTransBInto(tensor.GetRaw(gradOut.Dim(0), d.W.Dim(0)), gradOut, d.W)
}

// backwardParams sets GW = xᵀ · gradOut and GB to gradOut's row sums.
func (d *Dense) backwardParams(ctx Context, gradOut *tensor.Tensor) {
	tensor.MatMulTransAInto(d.GW, ctx.(*tensor.Tensor), gradOut)
	tensor.SumRowsInto(d.GB, gradOut)
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.GW, d.GB} }
