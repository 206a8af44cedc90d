package transport

import (
	"fmt"

	"pipedream/internal/tensor"
)

// FlattenTensors concatenates tensors into one flat tensor (for
// single-message gradient exchange) and UnflattenAdd adds a flat tensor
// back into a destination slice of the same total size. The flat tensor
// comes from the tensor pool; a caller that ends up its only holder may
// recycle it with tensor.Put.
func FlattenTensors(ts []*tensor.Tensor) *tensor.Tensor {
	n := 0
	for _, t := range ts {
		n += t.Size()
	}
	out := tensor.GetRaw(n)
	FlattenInto(out.Data, ts)
	return out
}

// UnflattenAdd adds flat's values element-wise into dst (same layout as
// produced by FlattenTensors).
func UnflattenAdd(dst []*tensor.Tensor, flat *tensor.Tensor) {
	off := 0
	for _, t := range dst {
		off += t.Size()
	}
	if off != flat.Size() {
		panic(fmt.Sprintf("transport: unflatten size mismatch: %d vs %d", off, flat.Size()))
	}
	off = 0
	for _, t := range dst {
		tensor.AddInto(t.Data, t.Data, flat.Data[off:off+t.Size()])
		off += t.Size()
	}
}

// UnflattenTensors copies flat back into dst — the exact inverse of
// FlattenTensors. Unlike UnflattenAdd it returns an error instead of
// panicking when the total sizes disagree (nothing is written in that
// case), so callers can reject malformed wire payloads gracefully.
func UnflattenTensors(dst []*tensor.Tensor, flat *tensor.Tensor) error {
	n := 0
	for _, t := range dst {
		n += t.Size()
	}
	if flat == nil {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("transport: unflatten nil tensor into %d elements", n)
	}
	if n != flat.Size() {
		return fmt.Errorf("transport: unflatten size mismatch: dst %d vs flat %d", n, flat.Size())
	}
	off := 0
	for _, t := range dst {
		copy(t.Data, flat.Data[off:off+t.Size()])
		off += t.Size()
	}
	return nil
}

// FlattenInto copies the concatenation of ts into dst, which must have
// exactly the total size (the per-bucket view the chunked ring collective
// uses instead of one monolithic FlattenTensors copy). It returns the
// number of elements written.
func FlattenInto(dst []float32, ts []*tensor.Tensor) int {
	off := 0
	for _, t := range ts {
		copy(dst[off:off+t.Size()], t.Data)
		off += t.Size()
	}
	if off != len(dst) {
		panic(fmt.Sprintf("transport: flatten-into size mismatch: %d vs %d", off, len(dst)))
	}
	return off
}

// UnflattenFrom copies src back into ts (inverse of FlattenInto); src must
// have exactly the tensors' total size. It returns the number of elements
// read.
func UnflattenFrom(ts []*tensor.Tensor, src []float32) int {
	off := 0
	for _, t := range ts {
		copy(t.Data, src[off:off+t.Size()])
		off += t.Size()
	}
	if off != len(src) {
		panic(fmt.Sprintf("transport: unflatten-from size mismatch: %d vs %d", off, len(src)))
	}
	return off
}
