package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

func (g ConvGeom) check() {
	if g.Stride <= 0 {
		panic(fmt.Sprintf("tensor: conv stride must be positive, got %d", g.Stride))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// Im2Col lowers a batch input [B, C, H, W] into a matrix
// [B*OutH*OutW, C*KH*KW] so that convolution becomes a matrix multiply
// against a [C*KH*KW, OutC] kernel matrix. Images are lowered in
// parallel on the shared pool; each image writes a disjoint row block.
func Im2Col(in *Tensor, g ConvGeom) *Tensor {
	g.check()
	if in.NumDims() != 4 || in.Shape[1] != g.InC || in.Shape[2] != g.InH || in.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: im2col input %v does not match geometry %+v", in.Shape, g))
	}
	b := in.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	cols := New(b*oh*ow, rowLen)
	return Im2ColInto(cols, in, g)
}

// Im2ColInto lowers in into a caller-owned column matrix of shape
// [B*OutH*OutW, C*KH*KW] (the allocation-free form of Im2Col — dst may
// be pooled or arena-backed and uninitialized: every element, padding
// included, is written). Returns dst.
func Im2ColInto(dst, in *Tensor, g ConvGeom) *Tensor {
	g.check()
	if in.NumDims() != 4 || in.Shape[1] != g.InC || in.Shape[2] != g.InH || in.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: im2col input %v does not match geometry %+v", in.Shape, g))
	}
	b := in.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if dst.NumDims() != 2 || dst.Shape[0] != b*oh*ow || dst.Shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: im2colInto dst %v, want [%d,%d]", dst.Shape, b*oh*ow, rowLen))
	}
	parallelFor(b, oh*ow*rowLen, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			img := in.Data[n*g.InC*g.InH*g.InW:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := dst.Data[((n*oh+oy)*ow+ox)*rowLen:]
					ri := 0
					for c := 0; c < g.InC; c++ {
						plane := img[c*g.InH*g.InW:]
						for ky := 0; ky < g.KH; ky++ {
							iy := oy*g.Stride + ky - g.Pad
							for kx := 0; kx < g.KW; kx++ {
								ix := ox*g.Stride + kx - g.Pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									row[ri] = plane[iy*g.InW+ix]
								} else {
									row[ri] = 0
								}
								ri++
							}
						}
					}
				}
			}
		}
	})
	return dst
}

// Col2ImInto scatters a column matrix [B*OutH*OutW, C*KH*KW] back into a
// batch image, summing overlapping contributions into out, a zero-filled
// [B, C, H, W] tensor; it returns out. It is the adjoint of Im2Col and is
// used for convolution input gradients. Parallelism is per image: every
// scatter-add for image n lands in image n's plane, so concurrent images
// never race.
func Col2ImInto(out, cols *Tensor, g ConvGeom) *Tensor {
	g.check()
	oh, ow := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if out.NumDims() != 4 || out.Shape[1] != g.InC || out.Shape[2] != g.InH || out.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: col2im output %v does not match geometry %+v", out.Shape, g))
	}
	batch := out.Shape[0]
	if cols.NumDims() != 2 || cols.Shape[0] != batch*oh*ow || cols.Shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: col2im input %v does not match geometry %+v batch %d", cols.Shape, g, batch))
	}
	parallelFor(batch, oh*ow*rowLen, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			img := out.Data[n*g.InC*g.InH*g.InW:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := cols.Data[((n*oh+oy)*ow+ox)*rowLen:]
					ri := 0
					for c := 0; c < g.InC; c++ {
						plane := img[c*g.InH*g.InW:]
						for ky := 0; ky < g.KH; ky++ {
							iy := oy*g.Stride + ky - g.Pad
							for kx := 0; kx < g.KW; kx++ {
								ix := ox*g.Stride + kx - g.Pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									plane[iy*g.InW+ix] += row[ri]
								}
								ri++
							}
						}
					}
				}
			}
		}
	})
	return out
}

// MaxPoolInto performs max pooling over [B, C, H, W] into out
// [B, C, OutH, OutW], recording in idx the flat input index of each
// maximum (for the backward pass); both are fully overwritten. Images are
// pooled in parallel; outputs and argmax indices for image n occupy a
// disjoint block.
func MaxPoolInto(out *Tensor, idx []int, in *Tensor, g ConvGeom) {
	g.check()
	if in.NumDims() != 4 || in.Shape[1] != g.InC || in.Shape[2] != g.InH || in.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: maxpool input %v does not match geometry %+v", in.Shape, g))
	}
	b := in.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	if out.Size() != b*g.InC*oh*ow || len(idx) != out.Size() {
		panic(fmt.Sprintf("tensor: maxpool output %v with %d indices for input %v, geometry %+v", out.Shape, len(idx), in.Shape, g))
	}
	parallelFor(b, g.InC*oh*ow*g.KH*g.KW, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			oi := n * g.InC * oh * ow
			for c := 0; c < g.InC; c++ {
				base := (n*g.InC + c) * g.InH * g.InW
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						bestIdx, bestVal, seen := -1, float32(0), false
						for ky := 0; ky < g.KH; ky++ {
							iy := oy*g.Stride + ky - g.Pad
							if iy < 0 || iy >= g.InH {
								continue
							}
							for kx := 0; kx < g.KW; kx++ {
								ix := ox*g.Stride + kx - g.Pad
								if ix < 0 || ix >= g.InW {
									continue
								}
								v := in.Data[base+iy*g.InW+ix]
								if !seen || v > bestVal {
									bestIdx, bestVal, seen = base+iy*g.InW+ix, v, true
								}
							}
						}
						out.Data[oi] = bestVal
						idx[oi] = bestIdx
						oi++
					}
				}
			}
		}
	})
}

// MaxPoolBackwardInto routes output gradients back to the argmax
// positions recorded by MaxPoolInto, adding them into grad, a zero-filled
// tensor of the pooling input's shape; it returns grad.
func MaxPoolBackwardInto(grad, gradOut *Tensor, idx []int) *Tensor {
	if gradOut.Size() != len(idx) {
		panic(fmt.Sprintf("tensor: maxpool backward size mismatch %d vs %d", gradOut.Size(), len(idx)))
	}
	for i, v := range gradOut.Data {
		if idx[i] >= 0 {
			grad.Data[idx[i]] += v
		}
	}
	return grad
}
