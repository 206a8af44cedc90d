// Package nn implements a from-scratch neural-network stack at the layer
// granularity PipeDream partitions on: every layer exposes an explicit
// Forward and Backward, parameters and gradients are first-class tensors,
// and forward passes return an opaque per-minibatch context so that several
// minibatches can be in flight through the same layer at once — the
// property pipeline-parallel execution depends on.
package nn

import (
	"fmt"
	"slices"

	"pipedream/internal/tensor"
)

// Context carries the per-minibatch state a layer saved during Forward and
// needs again during Backward (inputs, pre-activations, pooling indices...).
// Contexts are never shared between minibatches, which is what allows a
// stage to interleave forward and backward passes of different minibatches
// as the 1F1B schedule requires.
type Context interface{}

// Layer is a differentiable operator with (possibly empty) parameters.
//
// Backward must set the tensors returned by Grads to this minibatch's
// parameter gradients — every element, whatever they held: callers do not
// zero them, and one that wants a sum over several backward passes keeps
// it itself — and return the gradient with respect to the layer input.
// Until its next Backward the gradients are the caller's to read or to
// rewrite in place (the ring all-reduce averages them where they lie).
// Sequential's backward has two passes (BackwardWithHook): a layer's
// Backward may run before those above have set their gradients, or not at
// all below the lowest layer with parameters of an input stage.
//
// Tensor ownership. A layer takes the tensors it returns from the tensor
// pool (tensor.GetRaw when it writes every element, tensor.Get when it
// accumulates into zeros) and owns none of them afterwards: its input
// belongs to whoever called Forward, and its output and input gradient to
// that caller too, who releases them (Sequential does, for everything that
// stays inside it). So a layer never passes its input, its output, gradOut
// or the gradient it returns to tensor.Put, and its Forward and Backward
// never write to its input or to gradOut (Sequential alone runs an
// elementwise layer over a buffer whose values it owns and no context
// reads: see Sequential.Forward). It may return a view of its input from
// Forward, or of gradOut (or gradOut itself) from Backward. What a layer
// does release is its own: scratch it took and finished with inside one
// call, and pooled tensors only its Context refers to, which Backward
// recycles before it returns (layers that hold such tensors implement
// contextDiscarder for the forward passes that never get a backward).
//
// What a Context may read. Sequential releases an activation once no
// Context reads it, and tells which do by type (see reads): a bare
// *tensor.Tensor is exactly what Backward reads — the layer's input (Dense),
// its output (Tanh) or a tensor of its own (ReLU's mask); a nil one and the
// shape-only Contexts read nothing; any other may read the layer's input
// and nothing else, so a Context that needs its output must be that output.
// SeqContext.ReadsInput and ReadsOutput pass the answer on.
//
// Parameter headers (the *tensor.Tensor values Params and Grads return)
// are stable for the life of the model; their Data is not stable across an
// optimizer step, do not cache it: the pipeline runtime keeps a stage's
// parameters in one flat array per weight version and points the headers
// at the version an op runs under.
type Layer interface {
	// Name identifies the layer in profiles and partitioning output.
	Name() string
	// Forward computes the layer output for one minibatch. train enables
	// training-only behaviour such as dropout. There is one forward path:
	// inference is Forward(x, false) with the context discarded
	// (Sequential.Discard).
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context)
	// Backward computes input gradients and sets parameter gradients,
	// given the context returned by the matching Forward.
	Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the parameter tensors (shared, not copies).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors, aligned with Params.
	Grads() []*tensor.Tensor
}

// contextDiscarder is implemented by layers whose Context holds pooled
// tensors of its own: discard recycles them. Backward ends with it, and
// Sequential.Discard calls it for a forward pass that gets no backward.
type contextDiscarder interface {
	discard(ctx Context)
}

// Sequential is an ordered list of layers — the "operator graph" PipeDream
// partitions into stages; its backward runs in two passes (BackwardWithHook).
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// SeqContext is the per-minibatch context of a Sequential: one context per
// layer, in forward order, and the layer outputs the Sequential is the one
// to release. A context serves one Backward (or one Discard).
type SeqContext struct {
	ctxs []Context
	// owned[i] is layer i's output when a context reads it and it has
	// storage of its own; nil for the last layer's output, which is the
	// caller's, for a view of the caller's input, of the caller's output or
	// of the previous layer's output (which goes with that one), and for an
	// output no context reads, which Forward released.
	owned    []*tensor.Tensor
	gradOuts []*tensor.Tensor // split layer i's gradOut, from its input half to its parameter half
	read     []*tensor.Tensor // read[i]: the storage layer i's context reads (see reads), or nil
	// readsInput, readsOutput: a context reads the caller's input, output.
	readsInput, readsOutput bool
}

// ReadsOutput reports whether Backward will read the output Forward
// returned. When it does not, the caller may release the output as soon
// as it has used it, before Backward.
func (c *SeqContext) ReadsOutput() bool { return c.readsOutput }

// ReadsInput reports whether Backward will read the input Forward was
// given. When it does not, the caller may release the input as soon as
// Forward returns, before Backward.
func (c *SeqContext) ReadsInput() bool { return c.readsInput }

// Reads reports whether Backward will read t's storage.
func (c *SeqContext) Reads(t *tensor.Tensor) bool { return sharesAny(t, c.read) }

// HeldBytes is the size of the activations Backward will read — the layer
// outputs the Sequential keeps, the bare-tensor contexts (a ReLU's mask, a
// Tanh's output), the caller's input where a context reads it — and of
// extra, the caller's own tensors for the same Backward (nil ones count
// nothing), each storage once. Tensors private to an opaque context (an
// LSTM's gates, a LayerNorm's normalized input) are not counted. Ask
// before Backward or Discard, which release what it counts.
func (c *SeqContext) HeldBytes(extra ...*tensor.Tensor) int64 {
	var bytes int64
	for i, t := range c.read {
		if t != nil && !sharesAny(t, c.read[:i]) {
			bytes += int64(t.Bytes())
		}
	}
	for i, t := range extra {
		if t != nil && !sharesAny(t, c.read) && !sharesAny(t, extra[:i]) {
			bytes += int64(t.Bytes())
		}
	}
	return bytes
}

// reads returns the storage a layer context will read in Backward, given
// the input its layer was handed: a bare tensor is what it reads (nil:
// nothing); the contexts below keep shapes or tensors of their own and
// read no activation; any other context may read its layer's input.
func reads(ctx Context, in *tensor.Tensor) *tensor.Tensor {
	switch c := ctx.(type) {
	case *tensor.Tensor:
		return c
	case flattenCtx, flattenTimeCtx, lastStepCtx, poolCtx, avgPoolCtx, *layerNormCtx:
		return nil
	}
	return in
}

// sharesAny reports whether t shares storage with one of ts.
func sharesAny(t *tensor.Tensor, ts []*tensor.Tensor) bool {
	for _, u := range ts {
		if tensor.SharesStorage(t, u) {
			return true
		}
	}
	return false
}

// Forward runs all layers in order. An elementwise layer (ReLU, Tanh,
// Sigmoid, Dropout) writes its output over its input when that is an
// output the Sequential owns and no context reads; x stays as it was.
// Before it returns, while every output is alive, Forward finds what the
// layer contexts read and releases the outputs it owns that none reads.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, *SeqContext) {
	return s.forward(x, train, false)
}

// ForwardOver is Forward with x's values handed over: a first elementwise
// layer writes over x too. x stays the caller's to release.
func (s *Sequential) ForwardOver(x *tensor.Tensor, train bool) (*tensor.Tensor, *SeqContext) {
	return s.forward(x, train, true)
}

func (s *Sequential) forward(x *tensor.Tensor, train, over bool) (*tensor.Tensor, *SeqContext) {
	n := len(s.Layers)
	held := make([]*tensor.Tensor, 3*n)
	ctx := &SeqContext{ctxs: make([]Context, n), owned: held[:n:n], gradOuts: held[n : 2*n : 2*n], read: held[2*n:]}
	in := x
	for i, l := range s.Layers {
		layerIn := x
		if e, ok := l.(elementwise); ok && (over || !tensor.SharesStorage(x, in)) && !sharesAny(x, ctx.read[:i]) {
			ctx.ctxs[i] = e.forwardInto(x, x, train)
		} else {
			x, ctx.ctxs[i] = l.Forward(x, train)
		}
		ctx.owned[i] = x
		ctx.read[i] = reads(ctx.ctxs[i], layerIn)
	}
	ctx.readsInput, ctx.readsOutput = sharesAny(in, ctx.read), sharesAny(x, ctx.read)
	prev := in
	for i, out := range ctx.owned {
		if i == n-1 || tensor.SharesStorage(out, prev) || tensor.SharesStorage(out, in) || tensor.SharesStorage(out, x) {
			ctx.owned[i] = nil
		}
		prev = out
	}
	// Released only now: another goroutine may take a released header at once.
	for i, out := range ctx.owned {
		if out != nil && !sharesAny(out, ctx.read) {
			tensor.Put(out)
			ctx.owned[i] = nil
		}
	}
	return x, ctx
}

// splitLayer's Backward is its two halves; both read the context (the
// layer's input) and gradOut. backwardParams sets Grads.
type splitLayer interface {
	backwardInput(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor
	backwardParams(ctx Context, gradOut *tensor.Tensor)
}

// split returns l's halves, or nil when its backward runs whole: by concrete
// type, so a wrapper embedding a *Dense with a Context of its own runs whole.
func split(l Layer) splitLayer {
	switch l.(type) {
	case *Dense, *Conv2D, *Embedding:
		return l.(splitLayer)
	}
	return nil
}

// Backward is BackwardWithHook returning the input gradient, hooking
// nothing, and leaving gradOut as it was.
func (s *Sequential) Backward(ctx *SeqContext, gradOut *tensor.Tensor) (gradIn *tensor.Tensor) {
	s.backward(ctx, gradOut, false, func(g *tensor.Tensor) { gradIn = g }, nil)
	return gradIn
}

// BackwardWithHook runs the backward in the order a pipeline waits for it,
// in two passes over the layers, last to first. Pass 1 computes input
// gradients — Dense, Conv2D and Embedding run their input half, any other
// layer its whole Backward — and hands up the input gradient, the caller's
// from then on (maybe a view of gradOut). Pass 2 runs the parameter halves,
// calling hook(i) after layer i: the gradients of layers i.. are final.
// Every product keeps its operands and accumulation order. A nil up asks
// for no input gradient: the lowest layer with parameters runs no input
// half and the layers below it do not run (their contexts are discarded).
// A gradient between layers is recycled once no half reads it, a layer
// output the Sequential owns (see SeqContext) once its producer ran and no
// parameter half above reads it. An elementwise layer writes its input
// gradient over the one it is given, gradOut's values included; gradOut
// stays the caller's to release.
func (s *Sequential) BackwardWithHook(ctx *SeqContext, gradOut *tensor.Tensor, up func(gradIn *tensor.Tensor), hook func(layer int)) {
	s.backward(ctx, gradOut, true, up, hook)
}

func (s *Sequential) backward(ctx *SeqContext, gradOut *tensor.Tensor, over bool, up func(gradIn *tensor.Tensor), hook func(layer int)) {
	n := len(s.Layers)
	if len(ctx.ctxs) != n {
		panic(fmt.Sprintf("nn: context for %d layers used with %d-layer Sequential", len(ctx.ctxs), n))
	}
	if ctx.owned == nil && n > 0 {
		panic("nn: Sequential context used after its Backward or Discard")
	}
	low := 0 // the lowest layer pass 1 runs
	for up == nil && low < n && split(s.Layers[low]) == nil && len(s.Layers[low].Params()) == 0 {
		low++
	}
	// splitIn is the nearest split layer above's input: no other output is read again.
	var splitIn *tensor.Tensor
	grad := gradOut
	for i := n - 1; i >= 0; i-- {
		l := s.Layers[i]
		sp := split(l)
		switch {
		case i < low:
			if d, ok := l.(contextDiscarder); ok {
				d.discard(ctx.ctxs[i])
			}
		case sp != nil:
			ctx.gradOuts[i], grad = grad, nil
			if i > low || up != nil {
				grad = sp.backwardInput(ctx.ctxs[i], ctx.gradOuts[i])
			}
		default:
			next := grad
			if e, ok := l.(elementwise); ok && (over || !tensor.SharesStorage(grad, gradOut)) {
				e.backwardInto(grad, ctx.ctxs[i], grad)
			} else {
				next = l.Backward(ctx.ctxs[i], grad)
			}
			if !tensor.SharesStorage(grad, gradOut) && !tensor.SharesStorage(grad, next) {
				tensor.Put(grad)
			}
			grad = next
		}
		if !tensor.SharesStorage(ctx.owned[i], splitIn) {
			tensor.Put(ctx.owned[i])
			ctx.owned[i] = nil
		}
		if sp != nil {
			splitIn = ctx.ctxs[i].(*tensor.Tensor)
		}
	}
	if up != nil {
		up(grad)
	} else if !tensor.SharesStorage(grad, gradOut) {
		tensor.Put(grad) // what an unsplit lowest layer returned unasked
	}
	for i := n - 1; i >= 0; i-- {
		if sp := split(s.Layers[i]); sp != nil {
			sp.backwardParams(ctx.ctxs[i], ctx.gradOuts[i])
			if !tensor.SharesStorage(ctx.gradOuts[i], gradOut) {
				tensor.Put(ctx.gradOuts[i])
			}
		}
		tensor.Put(ctx.owned[i])
		if hook != nil {
			hook(i)
		}
	}
	ctx.owned = nil
}

// Discard recycles what a forward pass left in ctx when no Backward will
// run for it: the layer outputs the Sequential owns and the pooled tensors
// held by layer contexts. Forward(x, false) then Discard is the inference
// call — serving runs it per batch, activation recomputation drops the
// first forward's state with it. The output stays the caller's (it may be
// a view of x: release one of them, tensor.SharesStorage tells).
func (s *Sequential) Discard(ctx *SeqContext) {
	for i, l := range s.Layers {
		if d, ok := l.(contextDiscarder); ok {
			d.discard(ctx.ctxs[i])
		}
		tensor.Put(ctx.owned[i])
	}
	ctx.owned = nil
}

// Params returns all parameters of all layers.
func (s *Sequential) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads returns the gradient tensors of all layers.
func (s *Sequential) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// ZeroGrads clears all gradients. Nothing requires it: Backward sets them.
func (s *Sequential) ZeroGrads() { zero(s.Grads()...) }

// Slice returns a Sequential over layers [lo, hi) sharing the same layer
// values — used to split a model into pipeline stages. Its layer list is
// its own, so a stage keeps none of the model's other layers alive.
func (s *Sequential) Slice(lo, hi int) *Sequential {
	return &Sequential{Layers: slices.Clone(s.Layers[lo:hi])}
}

// SnapshotParams deep-copies params: a weight version as a copy, for the
// single-worker BSP/ASP reference loops and for tests. (The pipeline
// runtime keeps versions without copying them.)
func SnapshotParams(params []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

// RestoreParams copies snapshot values back into params.
func RestoreParams(params, snapshot []*tensor.Tensor) {
	if len(params) != len(snapshot) {
		panic(fmt.Sprintf("nn: restore %d params from %d snapshots", len(params), len(snapshot)))
	}
	for i, p := range params {
		p.CopyFrom(snapshot[i])
	}
}

// ParamBytes returns the total parameter size in bytes.
func ParamBytes(params []*tensor.Tensor) int {
	n := 0
	for _, p := range params {
		n += p.Bytes()
	}
	return n
}
