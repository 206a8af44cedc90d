package nn

import "pipedream/internal/tensor"

// Pooled-scratch helpers for the gradient-accumulation pattern
// `dst.Add(MatMul*(a, b))` that dominates backward passes: the product
// lands in a pooled buffer instead of a fresh allocation, so
// steady-state training reuses the same few arenas every minibatch.
// The …Into kernels overwrite every element, so their scratch is taken
// unzeroed; SumRowsInto accumulates and needs the zeroed Get.

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

// addSumRows accumulates the column-wise sums of a into dst (a bias
// gradient) via pooled scratch, preserving the accumulation order of
// the dst.Add(SumRows(a)) form it replaces.
func addSumRows(dst, a *tensor.Tensor) {
	tmp := tensor.Get(dst.Shape...)
	tensor.SumRowsInto(tmp, a)
	dst.Add(tmp)
	tensor.Put(tmp)
}
