package nn

import "pipedream/internal/tensor"

// Backward sets parameter gradients. A gradient that is one product is
// written where it lives (Dense, Conv2D); a layer that sums one term per
// time step, sample or token clears its gradients first (zero) and adds
// each term with the helpers below: the term lands in pooled scratch —
// unzeroed, every …Into kernel overwrites its destination — and is added
// on, so terms are summed in the order they are computed.

// zero clears gradients.
func zero(grads ...*tensor.Tensor) {
	for _, g := range grads {
		g.Zero()
	}
}

// addMatMulTransA accumulates Aᵀ·B into dst using pooled scratch.
func addMatMulTransA(dst, a, b *tensor.Tensor) {
	tmp := tensor.GetRaw(dst.Shape...)
	tensor.MatMulTransAInto(tmp, a, b)
	dst.Add(tmp)
	tensor.Put(tmp)
}

// addMatMulTransB accumulates A·Bᵀ into dst using pooled scratch.
func addMatMulTransB(dst, a, b *tensor.Tensor) {
	tmp := tensor.GetRaw(dst.Shape...)
	tensor.MatMulTransBInto(tmp, a, b)
	dst.Add(tmp)
	tensor.Put(tmp)
}

// addSumRows accumulates the column-wise sums of a into dst (one term
// of a bias gradient) using pooled scratch.
func addSumRows(dst, a *tensor.Tensor) {
	tmp := tensor.GetRaw(dst.Shape...)
	tensor.SumRowsInto(tmp, a)
	dst.Add(tmp)
	tensor.Put(tmp)
}
