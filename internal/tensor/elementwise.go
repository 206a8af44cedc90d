package tensor

import (
	"fmt"
	"unsafe"
)

// Out-of-place elementwise kernels: each reads its sources once and
// writes every element of dst once, so a caller that needs a new tensor
// takes it unzeroed from the pool (GetRaw) and fills it in a single
// pass, instead of cloning a source and rewriting the clone.
//
// They fall under the kernel contract of matmul.go. The portable loops
// below (the *Go functions, which take the index to start from) are the
// specification: per element, the float32 operations as written,
// separately rounded. Elements are independent, so a vector kernel (the
// *Vec functions; AVX2 assembly on amd64 for those that carry a training
// step's time — ReLU with and without its mask, ReLU's backward, Add,
// AddScaled, AddScale, Scale, tanh and sigmoid — absent elsewhere) takes
// the leading elements it can and reports how many, and the portable
// loop computes the rest. Both give the same bits for every input, NaN,
// ±0, ±Inf and denormals included, and the same mask bits, so which one
// ran is unobservable. For tanh and sigmoid the
// per-element definition is float64 library code (Tanh32 and Sigmoid32
// in fused.go), and their vector bodies run only on a host where that
// library code is the FMA sequence they mirror.
//
// Sources and dst must have equal lengths. dst may be one of the
// sources itself (the same elements: the in-place forms Tensor.Add and
// ApplyActivation are exactly that); any other overlap between dst and
// a source panics, because a vector kernel would then read elements an
// earlier store of the same call already replaced. A ReLU mask overlaps
// nothing.

// checkElementwise panics unless src has dst's length and is either dst
// itself or disjoint from it.
func checkElementwise(op string, dst, src []float32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: %s length mismatch: dst %d, source %d", op, len(dst), len(src)))
	}
	if len(dst) > 0 && &dst[0] != &src[0] && overlap(dst, src) {
		panic(fmt.Sprintf("tensor: %s destination partially overlaps a source", op))
	}
}

// overlap reports whether a and b share an element.
func overlap(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(4*len(b)) && pb < pa+uintptr(4*len(a))
}

// Activate writes act(src[i]) to dst[i].
func Activate(dst, src []float32, act Activation) {
	checkElementwise("activate", dst, src)
	switch act {
	case ActNone:
		copy(dst, src)
	case ActReLU:
		reluGo(dst, src, nil, reluVec(dst, src, nil))
	case ActTanh:
		tanhGo(dst, src, tanhVec(dst, src))
	case ActSigmoid:
		sigmoidGo(dst, src, sigmoidVec(dst, src))
	default:
		panic(fmt.Sprintf("tensor: unknown activation %d", int(act)))
	}
}

// ReLUWithMask writes Activate(dst, src, ActReLU)'s bits to dst and
// returns the keep mask, which is all of the forward ReLUBackward reads:
// one bit per element, set where !(src[i] <= 0) — the rectifier's own
// compare, so a NaN passes and ±0 clears. The mask is a pooled tensor,
// the caller's to release. Bit i is bit i%8 of byte 1+i/8 of its
// storage. Byte 0 is zero, so the mask's first element is never the
// pool's released mark (poisonBits), whatever the input.
func ReLUWithMask(dst, src []float32) *Tensor {
	checkElementwise("relu", dst, src)
	mask := GetRaw(reluMaskLen(len(src)))
	bits := maskBytes(mask.Data)
	bits[0] = 0
	reluGo(dst, src, bits[1:], reluVec(dst, src, bits[1:]))
	return mask
}

// reluMaskLen is the element count of an n-element rectifier's mask:
// 1+⌈n/8⌉ bytes in whole elements.
func reluMaskLen(n int) int { return ((n+7)/8 + 4) / 4 }

func maskBytes(mask []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(mask))), 4*len(mask))
}

// reluGo is the portable rectifier over elements [i0, len(src)):
// v <= 0 gives +0 and everything else, NaN included, passes through. A
// non-nil mask (i0 is then a multiple of 8) gets bit i%8 of mask[i/8]
// set for each element that passed, and its other bits from i0 on clear.
func reluGo(dst, src []float32, mask []byte, i0 int) {
	dst = dst[:len(src)]
	if mask != nil {
		clear(mask[i0/8:])
	}
	for i := i0; i < len(src); i++ {
		v := src[i]
		if v <= 0 {
			v = 0
		} else if mask != nil {
			mask[i/8] |= 1 << (i % 8)
		}
		dst[i] = v
	}
}

func tanhGo(dst, src []float32, i0 int) {
	dst = dst[:len(src)]
	for i := i0; i < len(src); i++ {
		dst[i] = Tanh32(src[i])
	}
}

func sigmoidGo(dst, src []float32, i0 int) {
	dst = dst[:len(src)]
	for i := i0; i < len(src); i++ {
		dst[i] = Sigmoid32(src[i])
	}
}

// ReLUBackward writes the rectifier's input gradient: dst[i] is
// gradOut[i] where bit i of the forward's mask (ReLUWithMask's, for
// len(dst) elements) is set and +0 elsewhere. dst may be gradOut itself;
// the mask shares no element with either.
func ReLUBackward(dst, gradOut, mask []float32) {
	checkElementwise("relu backward", dst, gradOut)
	if len(mask) != reluMaskLen(len(dst)) || overlap(mask, dst) || overlap(mask, gradOut) {
		panic(fmt.Sprintf("tensor: relu backward mask of %d elements for %d, or overlapping an operand", len(mask), len(dst)))
	}
	bits := maskBytes(mask)[1:]
	reluBackwardGo(dst, gradOut, bits, reluBackwardVec(dst, gradOut, bits))
}

func reluBackwardGo(dst, gradOut []float32, mask []byte, i0 int) {
	dst = dst[:len(gradOut)]
	for i := i0; i < len(gradOut); i++ {
		g := gradOut[i]
		if mask[i/8]>>(i%8)&1 == 0 {
			g = 0
		}
		dst[i] = g
	}
}

// TanhBackward writes gradOut[i]·(1−y[i]²) to dst[i], y being the
// forward output.
func TanhBackward(dst, gradOut, y []float32) {
	checkElementwise("tanh backward", dst, gradOut)
	checkElementwise("tanh backward", dst, y)
	for i, yv := range y {
		dst[i] = gradOut[i] * (1 - yv*yv)
	}
}

// SigmoidBackward writes gradOut[i]·(y[i]·(1−y[i])) to dst[i], y being
// the forward output.
func SigmoidBackward(dst, gradOut, y []float32) {
	checkElementwise("sigmoid backward", dst, gradOut)
	checkElementwise("sigmoid backward", dst, y)
	for i, yv := range y {
		dst[i] = gradOut[i] * (yv * (1 - yv))
	}
}

// AddInto writes a[i] + b[i] to dst[i].
func AddInto(dst, a, b []float32) {
	checkElementwise("add", dst, a)
	checkElementwise("add", dst, b)
	addGo(dst, a, b, addVec(dst, a, b))
}

func addGo(dst, a, b []float32, i0 int) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i := i0; i < len(a); i++ {
		dst[i] = a[i] + b[i]
	}
}

// AddScaledInto writes a[i] + s·b[i] to dst[i]: the product is rounded
// before the sum (no fused multiply-add).
func AddScaledInto(dst, a []float32, s float32, b []float32) {
	checkElementwise("addscaled", dst, a)
	checkElementwise("addscaled", dst, b)
	addScaledGo(dst, a, s, b, addScaledVec(dst, a, s, b))
}

func addScaledGo(dst, a []float32, s float32, b []float32, i0 int) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i := i0; i < len(a); i++ {
		dst[i] = a[i] + s*b[i]
	}
}

// AddScaleInto writes (a[i] + b[i])·s to dst[i], the sum rounded before
// the product: AddInto then ScaleInto, in one pass over the operands.
func AddScaleInto(dst, a, b []float32, s float32) {
	checkElementwise("addscale", dst, a)
	checkElementwise("addscale", dst, b)
	addScaleGo(dst, a, b, s, addScaleVec(dst, a, b, s))
}

func addScaleGo(dst, a, b []float32, s float32, i0 int) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i := i0; i < len(a); i++ {
		dst[i] = (a[i] + b[i]) * s
	}
}

// ScaleInto writes src[i]·s to dst[i].
func ScaleInto(dst, src []float32, s float32) {
	checkElementwise("scale", dst, src)
	scaleGo(dst, src, s, addScaleVec(dst, src, nil, s))
}

func scaleGo(dst, src []float32, s float32, i0 int) {
	dst = dst[:len(src)]
	for i := i0; i < len(src); i++ {
		dst[i] = src[i] * s
	}
}

// MulInto writes a[i]·b[i] to dst[i].
func MulInto(dst, a, b []float32) {
	checkElementwise("mul", dst, a)
	checkElementwise("mul", dst, b)
	for i, av := range a {
		dst[i] = av * b[i]
	}
}
