package tensor

import "fmt"

// Matrix kernels. All three matmul variants share the same structure:
// the output is cut into row panels that parallelFor dispatches to the
// shared worker pool (each panel writes a disjoint slice of C, so no
// synchronization is needed), and the inner loops are blocked/unrolled
// for cache friendliness. Per-row accumulation order is independent of
// the panel split, so results are bit-identical at every parallelism
// degree.
//
// Kernel contract: the accumulation order of each product, as written
// in the portable loops below, is the specification — per output
// element, float32 multiplies and adds in that association order,
// separately rounded (the Go compiler does not fuse them on amd64; on
// an architecture where it does, the portable loop is the only
// implementation and defines that host's bits). Every output element is
// computed independently of the others, so a panel may be split by
// columns: a vector kernel (the *Vec functions; AVX2 assembly on amd64,
// absent elsewhere) takes the leading columns it can and reports how
// many, and the portable loop, which takes a starting column, computes
// the rest. A vector kernel may also compute several rows per pass, to
// share loads between them; such a kernel handles its own short block
// at the panel's end, by computing some rows twice (the same bits,
// written twice) or by taking no columns of a panel too short for a
// pass. Both produce the same bits, so which one ran is unobservable;
// the portable loops are the only implementation on other hosts and
// the reference the tests hold the assembly to.

func checkMatMul2D(a, b *Tensor, op string) {
	if a.NumDims() != 2 || b.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-d operands, got %v × %v", op, a.Shape, b.Shape))
	}
}

// MatMul computes C = A·B for 2-D tensors A [m,k] and B [k,n], returning
// a new [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	checkMatMul2D(a, b, "matmul")
	c := New(a.Shape[0], b.Shape[1])
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A·B into dst, which must be [m,n]. Existing
// contents of dst are overwritten. Returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	checkMatMul2D(a, b, "matmul")
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul inner dim mismatch %v × %v", a.Shape, b.Shape))
	}
	if dst.NumDims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul dst %v, want [%d,%d]", dst.Shape, m, n))
	}
	bd, cd := b.Data, dst.Data
	parallelFor(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			matmulRowPanel(cd[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], bd, k, n)
		}
	})
	return dst
}

// matmulRowPanel computes one output row crow = arow·B, overwriting
// crow. It is the single accumulation kernel shared by MatMulInto and
// MatMulBiasActInto, so fused and unfused products are bit-identical.
func matmulRowPanel(crow, arow, bd []float32, k, n int) {
	rowPanelGo(crow, arow, bd, k, n, rowPanelVec(crow, arow, bd, k, n))
}

// rowPanelGo is the portable row panel over columns [j0,n).
func rowPanelGo(crow, arow, bd []float32, k, n, j0 int) {
	if j0 == n {
		return
	}
	crow = crow[j0:n]
	for j := range crow {
		crow[j] = 0
	}
	// 8-way unroll over k: eight A coefficients are applied per
	// sweep of the output row, cutting the store/reload traffic
	// on crow 8×. Dense activations make a zero-skip branch here
	// a per-element mispredict cost, not a saving.
	p := 0
	for ; p+8 <= k; p += 8 {
		av0, av1, av2, av3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		av4, av5, av6, av7 := arow[p+4], arow[p+5], arow[p+6], arow[p+7]
		br0 := bd[p*n+j0 : p*n+n]
		br1 := bd[(p+1)*n+j0 : (p+1)*n+n]
		br2 := bd[(p+2)*n+j0 : (p+2)*n+n]
		br3 := bd[(p+3)*n+j0 : (p+3)*n+n]
		br4 := bd[(p+4)*n+j0 : (p+4)*n+n]
		br5 := bd[(p+5)*n+j0 : (p+5)*n+n]
		br6 := bd[(p+6)*n+j0 : (p+6)*n+n]
		br7 := bd[(p+7)*n+j0 : (p+7)*n+n]
		for j := range crow {
			crow[j] += av0*br0[j] + av1*br1[j] + av2*br2[j] + av3*br3[j] +
				av4*br4[j] + av5*br5[j] + av6*br6[j] + av7*br7[j]
		}
	}
	for ; p < k; p++ {
		av := arow[p]
		brow := bd[p*n+j0 : p*n+n]
		for j, bv := range brow {
			crow[j] += av * bv
		}
	}
}

// MatMulTransA computes C = Aᵀ·B for A [k,m], B [k,n] → C [m,n].
func MatMulTransA(a, b *Tensor) *Tensor {
	checkMatMul2D(a, b, "matmulTransA")
	c := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAInto computes C = Aᵀ·B into dst, which must be [m,n].
// Existing contents of dst are overwritten. Returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	checkMatMul2D(a, b, "matmulTransA")
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulTransA inner dim mismatch %v × %v", a.Shape, b.Shape))
	}
	if dst.NumDims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransA dst %v, want [%d,%d]", dst.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, dst.Data
	// Panels are over C's rows, i.e. A's columns: for one panel [lo,hi)
	// the kernel touches the contiguous segment A[p, lo:hi] of every A
	// row, streams each B row once, and owns C rows [lo,hi) exclusively.
	parallelFor(m, k*n, func(lo, hi int) {
		transAPanelGo(cd, ad, bd, m, k, n, lo, hi, transAPanelVec(cd, ad, bd, m, k, n, lo, hi))
	})
	return dst
}

// transAPanelGo is the portable Aᵀ·B kernel over rows [lo,hi) and
// columns [j0,n) of C.
func transAPanelGo(cd, ad, bd []float32, m, k, n, lo, hi, j0 int) {
	if j0 == n {
		return
	}
	for i := lo; i < hi; i++ {
		crow := cd[i*n+j0 : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
	}
	// 4 k-steps per sweep of each output row, quartering the
	// store/reload traffic on C.
	p := 0
	for ; p+4 <= k; p += 4 {
		as0 := ad[p*m+lo : p*m+hi]
		as1 := ad[(p+1)*m+lo : (p+1)*m+hi]
		as2 := ad[(p+2)*m+lo : (p+2)*m+hi]
		as3 := ad[(p+3)*m+lo : (p+3)*m+hi]
		br0 := bd[p*n+j0 : p*n+n]
		br1 := bd[(p+1)*n+j0 : (p+1)*n+n]
		br2 := bd[(p+2)*n+j0 : (p+2)*n+n]
		br3 := bd[(p+3)*n+j0 : (p+3)*n+n]
		for ii := range as0 {
			av0, av1, av2, av3 := as0[ii], as1[ii], as2[ii], as3[ii]
			crow := cd[(lo+ii)*n+j0 : (lo+ii+1)*n]
			for j := range crow {
				crow[j] += av0*br0[j] + av1*br1[j] + av2*br2[j] + av3*br3[j]
			}
		}
	}
	for ; p < k; p++ {
		aseg := ad[p*m+lo : p*m+hi]
		brow := bd[p*n+j0 : p*n+n]
		for ii, av := range aseg {
			crow := cd[(lo+ii)*n+j0 : (lo+ii+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTransB computes C = A·Bᵀ for A [m,k], B [n,k] → C [m,n].
func MatMulTransB(a, b *Tensor) *Tensor {
	checkMatMul2D(a, b, "matmulTransB")
	c := New(a.Shape[0], b.Shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes C = A·Bᵀ into dst, which must be [m,n].
// Existing contents of dst are overwritten. Returns dst.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	checkMatMul2D(a, b, "matmulTransB")
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulTransB inner dim mismatch %v × %v", a.Shape, b.Shape))
	}
	if dst.NumDims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransB dst %v, want [%d,%d]", dst.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, dst.Data
	parallelFor(m, k*n, func(lo, hi int) {
		j0 := transBPanelVec(cd, ad, bd, k, n, lo, hi)
		for i := lo; i < hi; i++ {
			transBRowGo(cd[i*n:(i+1)*n], ad[i*k:(i+1)*k], bd, k, n, j0)
		}
	})
	return dst
}

// transBRowGo is the portable A·Bᵀ kernel for columns [j0,n) of one
// output row.
func transBRowGo(crow, arow, bd []float32, k, n, j0 int) {
	for j := j0; j < n; j++ {
		brow := bd[j*k : j*k+k]
		// Four accumulators break the additive dependency chain of
		// the dot product.
		var s0, s1, s2, s3 float32
		p := 0
		for ; p+4 <= k; p += 4 {
			s0 += arow[p] * brow[p]
			s1 += arow[p+1] * brow[p+1]
			s2 += arow[p+2] * brow[p+2]
			s3 += arow[p+3] * brow[p+3]
		}
		s := s0 + s1 + s2 + s3
		for ; p < k; p++ {
			s += arow[p] * brow[p]
		}
		crow[j] = s
	}
}

// transposeBlock is the tile edge for Transpose2D: 32×32 float32 tiles
// (4 KiB read + 4 KiB written) sit comfortably in L1, so the
// column-major writes hit cache lines that stay resident for the whole
// tile instead of thrashing on large matrices.
const transposeBlock = 32

// Transpose2D returns a new tensor that is the transpose of a 2-D
// tensor, traversed in 32×32 tiles and parallelized over tile rows.
func Transpose2D(a *Tensor) *Tensor {
	if a.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: transpose needs a 2-d tensor, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	ad, td := a.Data, t.Data
	tileRows := (m + transposeBlock - 1) / transposeBlock
	parallelFor(tileRows, transposeBlock*n, func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			i0 := ti * transposeBlock
			i1 := i0 + transposeBlock
			if i1 > m {
				i1 = m
			}
			for j0 := 0; j0 < n; j0 += transposeBlock {
				j1 := j0 + transposeBlock
				if j1 > n {
					j1 = n
				}
				for i := i0; i < i1; i++ {
					row := ad[i*n : (i+1)*n]
					for j := j0; j < j1; j++ {
						td[j*m+i] = row[j]
					}
				}
			}
		}
	})
	return t
}

// AddRowVector adds the length-n vector v to every row of the [m,n] tensor.
func AddRowVector(a, v *Tensor) *Tensor {
	if a.NumDims() != 2 || v.Size() != a.Shape[1] {
		panic(fmt.Sprintf("tensor: addRowVector shape mismatch %v + %v", a.Shape, v.Shape))
	}
	n := a.Shape[1]
	for i := 0; i < a.Shape[0]; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, bv := range v.Data {
			row[j] += bv
		}
	}
	return a
}

// SumRowsInto writes the column-wise sum of a [m,n] tensor to dst, a
// length-n vector, and returns dst. Like every …Into kernel it overwrites
// dst: each element is summed from +0 down the rows.
func SumRowsInto(dst, a *Tensor) *Tensor {
	if a.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: sumRows needs a 2-d tensor, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if dst.Size() != n {
		panic(fmt.Sprintf("tensor: sumRowsInto dst %v, want %d elements", dst.Shape, n))
	}
	dd := dst.Data
	clear(dd)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			dd[j] += v
		}
	}
	return dst
}

// ArgMaxRows returns, for each row of a [m,n] tensor, the index of its
// maximum element.
func ArgMaxRows(a *Tensor) []int {
	if a.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: argMaxRows needs a 2-d tensor, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		best, bestV := 0, row[0]
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		out[i] = best
	}
	return out
}
