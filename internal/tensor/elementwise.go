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
// step's time — ReLU, its backward mask, Add, AddScaled, AddScale, Scale,
// tanh and sigmoid — absent elsewhere) takes the leading elements it can
// and reports how many, and the portable loop computes the rest. Both
// give the same bits for every input, NaN, ±0, ±Inf and denormals
// included, so which one ran is unobservable. For tanh and sigmoid the
// per-element definition is float64 library code (Tanh32 and Sigmoid32
// in fused.go), and their vector bodies run only on a host where that
// library code is the FMA sequence they mirror.
//
// Sources and dst must have equal lengths. dst may be one of the
// sources itself (the same elements: the in-place forms Tensor.Add and
// ApplyActivation are exactly that); any other overlap between dst and
// a source panics, because a vector kernel would then read elements an
// earlier store of the same call already replaced.

// checkElementwise panics unless src has dst's length and is either dst
// itself or disjoint from it.
func checkElementwise(op string, dst, src []float32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: %s length mismatch: dst %d, source %d", op, len(dst), len(src)))
	}
	if len(dst) == 0 {
		return
	}
	d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0]))
	if size := uintptr(4 * len(dst)); d != s && d < s+size && s < d+size {
		panic(fmt.Sprintf("tensor: %s destination partially overlaps a source", op))
	}
}

// Activate writes act(src[i]) to dst[i].
func Activate(dst, src []float32, act Activation) {
	checkElementwise("activate", dst, src)
	switch act {
	case ActNone:
		copy(dst, src)
	case ActReLU:
		reluGo(dst, src, reluVec(dst, src))
	case ActTanh:
		tanhGo(dst, src, tanhVec(dst, src))
	case ActSigmoid:
		sigmoidGo(dst, src, sigmoidVec(dst, src))
	default:
		panic(fmt.Sprintf("tensor: unknown activation %d", int(act)))
	}
}

// reluGo is the portable rectifier over elements [i0, len(src)):
// v <= 0 gives +0 and everything else, NaN included, passes through.
func reluGo(dst, src []float32, i0 int) {
	dst = dst[:len(src)]
	for i := i0; i < len(src); i++ {
		v := src[i]
		if v <= 0 {
			v = 0
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

// ReLUBackward writes the rectifier's input gradient: dst[i] is +0
// where the forward input x[i] <= 0 and gradOut[i] elsewhere (a NaN
// input passes its gradient through).
func ReLUBackward(dst, gradOut, x []float32) {
	checkElementwise("relu backward", dst, gradOut)
	checkElementwise("relu backward", dst, x)
	reluMaskGo(dst, gradOut, x, reluMaskVec(dst, gradOut, x))
}

func reluMaskGo(dst, gradOut, x []float32, i0 int) {
	dst, gradOut = dst[:len(x)], gradOut[:len(x)]
	for i := i0; i < len(x); i++ {
		g := gradOut[i]
		if x[i] <= 0 {
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
