package tensor

import "testing"

// With the FMA probe forced false the vector side of tanh and sigmoid
// takes nothing, and Activate gives the definitions' bits through the
// portable loops alone: what a host without FMA runs.
func TestTanhSigmoidWithoutFMA(t *testing.T) {
	defer func(prev bool) { useFMA = prev }(useFMA)
	useFMA = false
	src, dst := make([]float32, 33), make([]float32, 33)
	if n := tanhVec(dst, src) + sigmoidVec(dst, src); n != 0 {
		t.Fatalf("vector side took %d elements without FMA", n)
	}
	for n := 0; n <= 33; n++ {
		checkElementwiseBitEqual(t, int64(n), n)
	}
}
