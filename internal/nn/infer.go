package nn

import "pipedream/internal/tensor"

// The inference-mode forward path. Training Forward must retain a
// Context per minibatch so 1F1B can interleave backward passes, which
// forces per-call allocations; serving needs neither contexts nor
// gradients, so every intermediate can live in a caller-owned
// tensor.Arena that is reset between requests. Layers that implement
// InferLayer draw all scratch — and their output — from the arena;
// Sequential.ForwardInfer additionally folds a pointwise activation
// into the kernel call of the Dense or Conv2D before it.
//
// Outputs returned by ForwardInfer are arena-backed and valid only
// until the arena's next Reset: callers that hand results downstream
// (stage workers, servers) must copy them into pool- or GC-owned
// storage first.

// InferLayer is implemented by layers with an allocation-free
// inference path. ForwardInfer computes the same output as
// Forward(x, false) — bit-identically — without building a Context.
type InferLayer interface {
	// ForwardInfer runs the layer forward for inference, drawing all
	// scratch and the returned tensor from a.
	ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor
}

// fusedActivation is implemented by the pointwise activation layers so
// the Sequential peephole can fold them into a preceding fusedLayer.
type fusedActivation interface {
	fusedAct() tensor.Activation
}

// fusedLayer is implemented by Dense and Conv2D, whose kernels have an
// epilogue: forwardFused is ForwardInfer with act applied inside the call.
type fusedLayer interface {
	forwardFused(x *tensor.Tensor, a *tensor.Arena, act tensor.Activation) *tensor.Tensor
}

// applyInfer runs x through a pointwise activation into an arena-backed
// output.
func applyInfer(act tensor.Activation, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	y := a.GetRaw(x.Shape...)
	tensor.Activate(y.Data, x.Data, act)
	return y
}

// ForwardInfer runs the model forward in inference mode. Every layer
// that implements InferLayer executes allocation-free against the
// arena; a fusedLayer immediately followed by ReLU/Tanh/Sigmoid runs as
// one kernel call with the activation in its epilogue; all other layers
// fall back to Forward(x, false) with the context discarded. The result aliases
// arena storage and is invalidated by a.Reset.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		l := s.Layers[i]
		if fl, ok := l.(fusedLayer); ok && i+1 < len(s.Layers) {
			if f, ok := s.Layers[i+1].(fusedActivation); ok {
				x = fl.forwardFused(x, a, f.fusedAct())
				i++
				continue
			}
		}
		if il, ok := l.(InferLayer); ok {
			x = il.ForwardInfer(x, a)
			continue
		}
		y, _ := l.Forward(x, false)
		x = y
	}
	return x
}
