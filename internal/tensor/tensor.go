// Package tensor implements dense float32 tensors and the numerical
// kernels needed to train neural networks on the CPU: element-wise
// arithmetic, matrix multiplication, convolution (direct forward, im2col backward),
// pooling, reductions, and random initialization.
//
// Tensors are row-major. A Tensor value is cheap to copy (slice headers),
// but the underlying data is shared; use Clone for a deep copy.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is not
// copied. It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Randn returns a tensor of N(0, stddev^2) samples drawn from rng.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * stddev)
	}
	return t
}

// RandUniform returns a tensor of uniform samples in [lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the length of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// NumDims returns the number of axes.
func (t *Tensor) NumDims() int { return len(t.Shape) }

// Bytes returns the in-memory size of the tensor data in bytes.
func (t *Tensor) Bytes() int { return 4 * len(t.Data) }

// offset converts multi-dimensional indices to a flat offset.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: got %d indices for %d-d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for axis %d (size %d)", ix, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx...)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: copy size mismatch %v vs %v", t.Shape, src.Shape))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a view of t with a new shape of equal volume. One
// dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: more than one -1 in reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer reshape %v from volume %d", shape, len(t.Data)))
		}
		s[infer] = len(t.Data) / n
		n *= s[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with volume %d", shape, len(t.Data)))
	}
	return &Tensor{Shape: s, Data: t.Data}
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() { clear(t.Data) }

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) checkSame(o *Tensor, op string) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}

// Add adds o element-wise into t.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.checkSame(o, "add")
	AddInto(t.Data, t.Data, o.Data)
	return t
}

// Sub subtracts o element-wise from t.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.checkSame(o, "sub")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Mul multiplies t by o element-wise.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	t.checkSame(o, "mul")
	for i, v := range o.Data {
		t.Data[i] *= v
	}
	return t
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) *Tensor {
	ScaleInto(t.Data, t.Data, s)
	return t
}

// AddScaled performs t += s*o (axpy).
func (t *Tensor) AddScaled(s float32, o *Tensor) *Tensor {
	t.checkSame(o, "addscaled")
	AddScaledInto(t.Data, t.Data, s, o.Data)
	return t
}

// Apply replaces each element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// AllClose reports whether every pair of elements differs by at most tol.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if len(t.Data) != len(o.Data) {
		return false
	}
	for i := range t.Data {
		if math.Abs(float64(t.Data[i])-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a short description with leading values.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data[:n])
}
