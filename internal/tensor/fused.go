package tensor

import (
	"fmt"
	"math"
)

// Fused matmul epilogues. The forward hot path of every layer is
// "matmul, add a row-broadcast bias, apply a pointwise activation";
// doing those as three passes streams the output matrix through the
// cache three times and, with the unfused helpers, allocates an
// intermediate per call. MatMulBiasActInto folds bias-add and
// activation into the row panel right after it is accumulated — the
// row is still cache-hot — and writes into a caller-owned destination.
//
// Bit-identity: the accumulation is the exact same code path as
// MatMulInto (shared via matmulRowPanel, below which the host's vector
// kernel and the portable loop split the row's columns — see the kernel
// contract in matmul.go), and the scalar epilogue applies
// act(acc + bias) per element in index order — the same float32
// operations in the same order as MatMulInto + AddRowVector +
// Apply(act), so fused and unfused results are bit-identical at every
// parallelism degree.

// Activation selects the pointwise epilogue fused into
// MatMulBiasActInto.
type Activation int

// Epilogue activations. ActNone applies only the bias (if any).
const (
	ActNone Activation = iota
	ActReLU
	ActTanh
	ActSigmoid
)

// Sigmoid32 is the canonical float32 logistic used by every kernel and
// layer in this codebase; sharing one definition keeps fused and
// unfused paths bit-identical. It is the specification of
// Activate(ActSigmoid): the vector body (sigmoidAVX2) returns these bits
// for all 2³² inputs, which TestTanhSigmoidBitEqual sweeps.
func Sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// Tanh32 is the canonical float32 tanh (float64 math, rounded once),
// and the specification of Activate(ActTanh) as Sigmoid32 is of
// Activate(ActSigmoid).
func Tanh32(v float32) float32 {
	return float32(math.Tanh(float64(v)))
}

// ReLU32 is the canonical rectifier.
func ReLU32(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

// ApplyActivation applies act elementwise to row in place — the
// epilogue of the fused kernels; Activate is the out-of-place form the
// standalone activation layers use, and both run the same loops.
func ApplyActivation(row []float32, act Activation) {
	if act != ActNone {
		Activate(row, row, act)
	}
}

// MatMulBiasActInto computes dst = act(A·B + bias) into dst [m,n] for
// A [m,k], B [k,n], and an optional length-n bias (nil means no bias).
// The bias-add and activation run inside the matmul's row panel while
// the freshly accumulated row is cache-hot; results are bit-identical
// to MatMulInto followed by AddRowVector and a pointwise activation.
// Returns dst.
func MatMulBiasActInto(dst, a, b, bias *Tensor, act Activation) *Tensor {
	checkMatMul2D(a, b, "matmulBiasAct")
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulBiasAct inner dim mismatch %v × %v", a.Shape, b.Shape))
	}
	if dst.NumDims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulBiasAct dst %v, want [%d,%d]", dst.Shape, m, n))
	}
	var biasData []float32
	if bias != nil {
		if bias.Size() != n {
			panic(fmt.Sprintf("tensor: matmulBiasAct bias %v, want %d elements", bias.Shape, n))
		}
		biasData = bias.Data
	}
	ad, bd, cd := a.Data, b.Data, dst.Data
	parallelFor(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := cd[i*n : (i+1)*n]
			matmulRowPanel(crow, ad[i*k:(i+1)*k], bd, k, n)
			if biasData != nil {
				for j, bv := range biasData {
					crow[j] += bv
				}
			}
			ApplyActivation(crow, act)
		}
	})
	return dst
}
