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

// ReLU is the rectified linear activation.
type ReLU struct{ name string }

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer. The context is the pooled keep mask, the
// layer's own: neither input nor output outlives the forward for it.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y := tensor.GetRaw(x.Shape...)
	return y, tensor.ReLUWithMask(y.Data, x.Data)
}

// Backward implements Layer. It recycles the mask.
func (r *ReLU) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	mask := ctx.(*tensor.Tensor)
	g := tensor.GetRaw(gradOut.Shape...)
	tensor.ReLUBackward(g.Data, gradOut.Data, mask.Data)
	r.discard(mask)
	return g
}

// discard implements contextDiscarder.
func (r *ReLU) discard(ctx Context) { tensor.Put(ctx.(*tensor.Tensor)) }

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{ name string }

// NewTanh creates a Tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.name }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y := tensor.GetRaw(x.Shape...)
	tensor.Activate(y.Data, x.Data, tensor.ActTanh)
	return y, y
}

// Backward implements Layer.
func (t *Tanh) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	y := ctx.(*tensor.Tensor)
	g := tensor.GetRaw(gradOut.Shape...)
	tensor.TanhBackward(g.Data, gradOut.Data, y.Data)
	return g
}

// Params implements Layer.
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct{ name string }

// NewSigmoid creates a Sigmoid layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return s.name }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y := tensor.GetRaw(x.Shape...)
	tensor.Activate(y.Data, x.Data, tensor.ActSigmoid)
	return y, y
}

// Backward implements Layer.
func (s *Sigmoid) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	y := ctx.(*tensor.Tensor)
	g := tensor.GetRaw(gradOut.Shape...)
	tensor.SigmoidBackward(g.Data, gradOut.Data, y.Data)
	return g
}

// Params implements Layer.
func (s *Sigmoid) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (s *Sigmoid) Grads() []*tensor.Tensor { return nil }

// Flatten reshapes [B, d1, d2, ...] to [B, d1*d2*...].
type Flatten struct{ name string }

// NewFlatten creates a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// flattenCtx and the other shape-only contexts copy the input's shape:
// Sequential may release the input, header and all, before Backward.
type flattenCtx struct{ shape []int }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	return x.Reshape(x.Dim(0), -1), flattenCtx{shape: slices.Clone(x.Shape)}
}

// Backward implements Layer.
func (f *Flatten) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(flattenCtx)
	return gradOut.Reshape(c.shape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Dropout zeroes inputs with probability P during training and rescales the
// survivors by 1/(1-P) (inverted dropout), so evaluation needs no scaling.
type Dropout struct {
	name string
	P    float64
	rng  *rand.Rand
}

// NewDropout creates a Dropout layer with drop probability p. It draws its
// masks from a private stream seeded from rng here, so no two layers of a
// model share a generator and stages cut from one model share no state.
func NewDropout(rng *rand.Rand, name string, p float64) *Dropout {
	return &Dropout{name: name, P: p, rng: rand.New(rand.NewSource(rng.Int63()))}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Forward implements Layer. The context is the pooled mask tensor (nil
// outside training, where the output is the input itself); Backward
// recycles it.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if !train || d.P == 0 {
		var noMask *tensor.Tensor
		return x, noMask
	}
	keep := float32(1 / (1 - d.P))
	y := tensor.GetRaw(x.Shape...)
	mask := tensor.GetRaw(x.Size())
	for i, v := range x.Data {
		m := float32(0)
		if d.rng.Float64() >= d.P {
			m = keep
		}
		mask.Data[i] = m
		y.Data[i] = v * m
	}
	return y, mask
}

// Backward implements Layer.
func (d *Dropout) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	mask := ctx.(*tensor.Tensor)
	if mask == nil {
		return gradOut
	}
	g := tensor.GetRaw(gradOut.Shape...)
	tensor.MulInto(g.Data, gradOut.Data, mask.Data)
	d.discard(mask)
	return g
}

// discard implements contextDiscarder: the mask is the layer's own.
func (d *Dropout) discard(ctx Context) { tensor.Put(ctx.(*tensor.Tensor)) }

// Params implements Layer.
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.Tensor { return nil }
