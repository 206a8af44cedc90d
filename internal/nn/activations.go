package nn

import (
	"math/rand"
	"slices"

	"pipedream/internal/tensor"
)

// The pointwise activations store a bare *tensor.Tensor as their
// Context, exactly what their backward reads: ReLU its keep mask (one bit
// per element, tensor.ReLUWithMask), Tanh and Sigmoid their output. A
// pointer fits in an interface word, so unlike a struct context it does
// not allocate. Tanh and Sigmoid run tensor.Activate, the kernel the fused
// MatMulBiasActInto / ConvBiasActInto epilogues apply too; ReLU the same
// rectifier, writing its mask in the same pass.

// elementwise layers compute output element i from input element i, and
// input gradient element i from gradOut element i and their context. One
// body takes the destination: a tensor from the pool in Forward and
// Backward, the source itself where Sequential runs the layer in place.
type elementwise interface {
	forwardInto(y, x *tensor.Tensor, train bool) Context
	backwardInto(g *tensor.Tensor, ctx Context, gradOut *tensor.Tensor)
}

func forwardNew(l elementwise, x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y := tensor.GetRaw(x.Shape...)
	return y, l.forwardInto(y, x, train)
}

func backwardNew(l elementwise, ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	g := tensor.GetRaw(gradOut.Shape...)
	l.backwardInto(g, ctx, gradOut)
	return g
}

// paramless is what the layers of this file share: a name, and neither
// parameters nor gradients.
type paramless struct{ name string }

// Name implements Layer.
func (p *paramless) Name() string { return p.name }

// Params implements Layer.
func (p *paramless) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *paramless) Grads() []*tensor.Tensor { return nil }

// ReLU is the rectified linear activation.
type ReLU struct{ paramless }

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{paramless{name}} }

// Forward implements Layer. The context is the pooled keep mask, the
// layer's own: neither input nor output outlives the forward for it.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	return forwardNew(r, x, train)
}

func (r *ReLU) forwardInto(y, x *tensor.Tensor, _ bool) Context {
	return tensor.ReLUWithMask(y.Data, x.Data)
}

// Backward implements Layer. It recycles the mask.
func (r *ReLU) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	return backwardNew(r, ctx, gradOut)
}

func (r *ReLU) backwardInto(g *tensor.Tensor, ctx Context, gradOut *tensor.Tensor) {
	tensor.ReLUBackward(g.Data, gradOut.Data, ctx.(*tensor.Tensor).Data)
	r.discard(ctx)
}

// discard implements contextDiscarder.
func (r *ReLU) discard(ctx Context) { tensor.Put(ctx.(*tensor.Tensor)) }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{ paramless }

// NewTanh creates a Tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{paramless{name}} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	return forwardNew(t, x, train)
}

func (t *Tanh) forwardInto(y, x *tensor.Tensor, _ bool) Context {
	tensor.Activate(y.Data, x.Data, tensor.ActTanh)
	return y
}

// Backward implements Layer.
func (t *Tanh) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	return backwardNew(t, ctx, gradOut)
}

func (t *Tanh) backwardInto(g *tensor.Tensor, ctx Context, gradOut *tensor.Tensor) {
	tensor.TanhBackward(g.Data, gradOut.Data, ctx.(*tensor.Tensor).Data)
}

// Sigmoid is the logistic activation.
type Sigmoid struct{ paramless }

// NewSigmoid creates a Sigmoid layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{paramless{name}} }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	return forwardNew(s, x, train)
}

func (s *Sigmoid) forwardInto(y, x *tensor.Tensor, _ bool) Context {
	tensor.Activate(y.Data, x.Data, tensor.ActSigmoid)
	return y
}

// Backward implements Layer.
func (s *Sigmoid) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	return backwardNew(s, ctx, gradOut)
}

func (s *Sigmoid) backwardInto(g *tensor.Tensor, ctx Context, gradOut *tensor.Tensor) {
	tensor.SigmoidBackward(g.Data, gradOut.Data, ctx.(*tensor.Tensor).Data)
}

// Flatten reshapes [B, d1, d2, ...] to [B, d1*d2*...].
type Flatten struct{ paramless }

// NewFlatten creates a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{paramless{name}} }

// flattenCtx and the other shape-only contexts copy the input's shape:
// Sequential may release the input, header and all, before Backward.
type flattenCtx struct{ shape []int }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	return x.Reshape(x.Dim(0), -1), flattenCtx{shape: slices.Clone(x.Shape)}
}

// Backward implements Layer.
func (f *Flatten) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(flattenCtx)
	return gradOut.Reshape(c.shape...)
}

// Dropout zeroes inputs with probability P during training and rescales the
// survivors by 1/(1-P) (inverted dropout), so evaluation needs no scaling.
type Dropout struct {
	paramless
	P   float64
	rng *rand.Rand
}

// NewDropout creates a Dropout layer with drop probability p. It draws its
// masks from a private stream seeded from rng here, so no two layers of a
// model share a generator and stages cut from one model share no state.
func NewDropout(rng *rand.Rand, name string, p float64) *Dropout {
	return &Dropout{paramless: paramless{name}, P: p, rng: rand.New(rand.NewSource(rng.Int63()))}
}

// Forward implements Layer. The context is the pooled mask tensor (nil
// outside training, where the output is the input itself); Backward
// recycles it.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if !train || d.P == 0 {
		return x, (*tensor.Tensor)(nil)
	}
	return forwardNew(d, x, train)
}

// forwardInto's y is x itself where the layer is the identity.
func (d *Dropout) forwardInto(y, x *tensor.Tensor, train bool) Context {
	if !train || d.P == 0 {
		return (*tensor.Tensor)(nil) // no mask
	}
	keep := float32(1 / (1 - d.P))
	mask := tensor.GetRaw(x.Size())
	for i, v := range x.Data {
		m := float32(0)
		if d.rng.Float64() >= d.P {
			m = keep
		}
		mask.Data[i] = m
		y.Data[i] = v * m
	}
	return mask
}

// Backward implements Layer.
func (d *Dropout) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	if ctx.(*tensor.Tensor) == nil {
		return gradOut
	}
	return backwardNew(d, ctx, gradOut)
}

// backwardInto's g is gradOut itself where the forward was the identity.
func (d *Dropout) backwardInto(g *tensor.Tensor, ctx Context, gradOut *tensor.Tensor) {
	if mask := ctx.(*tensor.Tensor); mask != nil {
		tensor.MulInto(g.Data, gradOut.Data, mask.Data)
		d.discard(mask)
	}
}

// discard implements contextDiscarder: the mask is the layer's own.
func (d *Dropout) discard(ctx Context) { tensor.Put(ctx.(*tensor.Tensor)) }
