package tensor

import "unsafe"

// The amd64 side of the kernel contract (see matmul.go): when the CPU
// and the OS support AVX2, the leading columns of every product — the
// largest multiple of four — are computed by the micro-kernels in
// kernels_amd64.s, and the portable loops finish the rest. The forward
// kernel computes one row per call; the backward ones share their
// loads across rows: A·Bᵀ two rows per pass, pairing an odd last row
// with itself, and Aᵀ·B four adjacent rows, overlapping a short last
// block with the one before it.

// useAVX2 is decided once, from CPUID and XGETBV, when the package is
// initialised; nothing else selects a kernel. useFMA is AVX2 and FMA,
// which implies math.Exp runs its FMA path: the condition under which
// the tanh and sigmoid bodies return the bits of Tanh32 and Sigmoid32.
var useAVX2, useFMA = cpuFeatures()

//go:noescape
func cpuFeatures() (avx2, fma bool)

//go:noescape
func rowPanelAVX2(c, a, b *float32, k, n, cols int)

//go:noescape
func transARowsAVX2(c, a, b *float32, k, m, n, cols int)

//go:noescape
func transBRowsAVX2(c, a *[2]*float32, b *float32, k, cols int)

// vectorCols is how many leading output columns of an n-column product
// with inner dimension k the micro-kernels take. Zero whenever an
// operand could be empty, so no kernel is handed &x[0] of an empty slice.
func vectorCols(k, n int) int {
	if !useAVX2 || k == 0 {
		return 0
	}
	return n &^ 3
}

// rowPanelVec computes the leading columns of crow = arow·B and returns
// how many it computed.
func rowPanelVec(crow, arow, bd []float32, k, n int) int {
	cols := vectorCols(k, n)
	if cols > 0 {
		rowPanelAVX2(&crow[0], &arow[0], &bd[0], k, n, cols)
	}
	return cols
}

// transAPanelVec computes the leading columns of rows [lo,hi) of
// C = Aᵀ·B, four adjacent rows per pass, and returns how many it
// computed: none for a panel of fewer than four rows.
func transAPanelVec(cd, ad, bd []float32, m, k, n, lo, hi int) int {
	cols := vectorCols(k, n)
	if cols == 0 || hi-lo < 4 {
		return 0
	}
	for i := lo; i < hi; i += 4 {
		i = min(i, hi-4) // a short last block overlaps the one before it
		transARowsAVX2(&cd[i*n], &ad[i], &bd[0], k, m, n, cols)
	}
	return cols
}

// transBPanelVec computes the leading columns of rows [lo,hi) of
// C = A·Bᵀ, two rows per pass, and returns how many it computed.
func transBPanelVec(cd, ad, bd []float32, k, n, lo, hi int) int {
	cols := vectorCols(k, n)
	if cols == 0 {
		return 0
	}
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1) // an odd last row is paired with itself
		c, a := [2]*float32{&cd[i*n], &cd[i1*n]}, [2]*float32{&ad[i*k], &ad[i1*k]}
		transBRowsAVX2(&c, &a, &bd[0], k, cols)
	}
	return cols
}

//go:noescape
func convRowAVX2(dst, src, w, bias *float32, taps *int, k, outC, plane, cols, chans int)

// convImageVec computes the leading columns of every output row of one
// padded image and returns how many; none unless the stride is one.
func convImageVec(out, img, wd, bias []float32, taps []int, outC int, g ConvGeom) int {
	oh, ow, pw := g.OutH(), g.OutW(), g.PadW()
	cols := ow &^ 3
	if !useAVX2 || g.Stride != 1 || cols == 0 {
		return 0
	}
	for oc, chans := 0, 4; oc < outC; oc += chans {
		if outC-oc < 4 {
			chans = 1
		}
		var bp *float32 // the biases of channels oc, oc+1, …
		if bias != nil {
			bp = &bias[oc]
		}
		for oy := 0; oy < oh; oy++ {
			convRowAVX2(&out[(oc*oh+oy)*ow], &img[oy*pw], &wd[oc], bp, &taps[0], len(taps), outC, oh*ow, cols, chans)
		}
	}
	return cols
}

// The elementwise kernels of elementwise.go. Each takes the leading
// multiple of eight elements; n is that count and is never zero.

//go:noescape
func reluAVX2(dst, src *float32, mask *byte, n int)

//go:noescape
func reluBackwardAVX2(dst, grad *float32, mask *byte, n int)

//go:noescape
func addAVX2(dst, a, b *float32, n int)

//go:noescape
func addScaledAVX2(dst, a, b *float32, s float32, n int)

//go:noescape
func addScaleAVX2(dst, a, b *float32, s float32, n int)

// vectorElems is how many leading elements of an n-element operand the
// elementwise kernels take.
func vectorElems(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 7
}

// reluVec writes the mask bytes of the elements it takes when mask is
// not nil.
func reluVec(dst, src []float32, mask []byte) int {
	n := vectorElems(len(src))
	if n > 0 {
		reluAVX2(&dst[0], &src[0], unsafe.SliceData(mask), n)
	}
	return n
}

func reluBackwardVec(dst, gradOut []float32, mask []byte) int {
	n := vectorElems(len(gradOut))
	if n > 0 {
		reluBackwardAVX2(&dst[0], &gradOut[0], &mask[0], n)
	}
	return n
}

func addVec(dst, a, b []float32) int {
	n := vectorElems(len(a))
	if n > 0 {
		addAVX2(&dst[0], &a[0], &b[0], n)
	}
	return n
}

func addScaledVec(dst, a []float32, s float32, b []float32) int {
	n := vectorElems(len(a))
	if n > 0 {
		addScaledAVX2(&dst[0], &a[0], &b[0], s, n)
	}
	return n
}

// addScaleVec serves AddScaleInto and, with a nil b, ScaleInto.
func addScaleVec(dst, a, b []float32, s float32) int {
	n := vectorElems(len(a))
	if n > 0 {
		var bp *float32
		if b != nil {
			bp = &b[0]
		}
		addScaleAVX2(&dst[0], &a[0], bp, s, n)
	}
	return n
}

//go:noescape
func tanhAVX2(dst, src *float32, n int)

//go:noescape
func sigmoidAVX2(dst, src *float32, n int)

// tanhVec and sigmoidVec take the leading multiple of four elements.
func tanhVec(dst, src []float32) int {
	n := len(src) &^ 3
	if !useFMA || n == 0 {
		return 0
	}
	tanhAVX2(&dst[0], &src[0], n)
	return n
}

func sigmoidVec(dst, src []float32) int {
	n := len(src) &^ 3
	if !useFMA || n == 0 {
		return 0
	}
	sigmoidAVX2(&dst[0], &src[0], n)
	return n
}
