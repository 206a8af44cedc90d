package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// Embedding maps token ids to dense vectors: [B, T] (ids stored as float32)
// → [B, T, Dim]. Token ids ride in tensors so embeddings compose with the
// pipeline transport like any other layer.
type Embedding struct {
	name       string
	Vocab, Dim int
	W          *tensor.Tensor // [Vocab, Dim]
	GW         *tensor.Tensor
}

// NewEmbedding creates an embedding table with N(0, 1/sqrt(dim)) init.
func NewEmbedding(rng *rand.Rand, name string, vocab, dim int) *Embedding {
	return &Embedding{
		name:  name,
		Vocab: vocab,
		Dim:   dim,
		W:     tensor.Randn(rng, math.Sqrt(1.0/float64(dim)), vocab, dim),
		GW:    tensor.New(vocab, dim),
	}
}

// Name implements Layer.
func (e *Embedding) Name() string { return e.name }

// Forward implements Layer. The context is the id tensor itself: Backward
// reads the ids back from it.
func (e *Embedding) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 2 {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T]", e.name, x.Shape))
	}
	y := tensor.GetRaw(x.Dim(0), x.Dim(1), e.Dim)
	for i, v := range x.Data {
		id := int(v)
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: %s token id %d out of vocab %d", e.name, id, e.Vocab))
		}
		copy(y.Data[i*e.Dim:(i+1)*e.Dim], e.W.Data[id*e.Dim:(id+1)*e.Dim])
	}
	return y, x
}

// Backward implements Layer: the parameter half, then the input half.
func (e *Embedding) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	e.backwardParams(ctx, gradOut)
	return e.backwardInput(ctx, gradOut)
}

// backwardInput returns zeros: token ids are not differentiable.
func (e *Embedding) backwardInput(ctx Context, _ *tensor.Tensor) *tensor.Tensor {
	return tensor.Get(ctx.(*tensor.Tensor).Shape...)
}

// backwardParams sets GW.
func (e *Embedding) backwardParams(ctx Context, gradOut *tensor.Tensor) {
	x := ctx.(*tensor.Tensor)
	if gradOut.Size() != x.Size()*e.Dim {
		panic(fmt.Sprintf("nn: %s backward grad %v for %d ids", e.name, gradOut.Shape, x.Size()))
	}
	e.GW.Zero() // a row's gradient is the sum over the tokens that hit it
	for i, v := range x.Data {
		id := int(v) // validated by Forward
		dst := e.GW.Data[id*e.Dim : (id+1)*e.Dim]
		tensor.AddInto(dst, dst, gradOut.Data[i*e.Dim:(i+1)*e.Dim])
	}
}

// Params implements Layer.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.W} }

// Grads implements Layer.
func (e *Embedding) Grads() []*tensor.Tensor { return []*tensor.Tensor{e.GW} }
