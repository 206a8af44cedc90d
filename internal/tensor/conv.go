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

// PadH returns the input height with the zero border on both sides.
func (g ConvGeom) PadH() int { return g.InH + 2*g.Pad }

// PadW returns the input width with the zero border on both sides.
func (g ConvGeom) PadW() int { return g.InW + 2*g.Pad }

// Check panics, naming the field, unless the kernels' indices stay in range:
// positive extents, Pad ≥ 0, a window that fits the padded input.
func (g ConvGeom) Check() {
	for _, f := range [...]struct {
		name     string
		got, min int
	}{{"InC", g.InC, 1}, {"InH", g.InH, 1}, {"InW", g.InW, 1}, {"KH", g.KH, 1}, {"KW", g.KW, 1}, {"Stride", g.Stride, 1}, {"Pad", g.Pad, 0}} {
		if f.got < f.min {
			panic(fmt.Sprintf("tensor: conv geometry %+v: %s must be at least %d", g, f.name, f.min))
		}
	}
	if g.KH > g.PadH() || g.KW > g.PadW() {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// ConvBiasActInto computes dst = act(in ⊛ w + bias) into dst
// [B, OutC, OutH, OutW] for in [B, InC, InH, InW], the kernel matrix w
// [InC·KH·KW, OutC] (row (c·KH+ky)·KW+kx holds tap (c, ky, kx) of every
// output channel: the matrix an im2col panel would be multiplied by) and
// an optional length-OutC bias. It convolves straight from padded,
// caller-owned scratch of shape [B, InC, PadH, PadW] that it fills with a
// zero-bordered copy of in, and writes NCHW: no panel, product matrix or
// transpose in between. Images run in parallel. Returns dst.
//
// Kernel contract (matmul.go): per output element the taps are
// accumulated in (c, ky, kx) order as matmulRowPanel accumulates an im2col
// row, then bias[oc] is added, then act applied: the bits of an im2col
// panel through MatMulBiasActInto, transposed to NCHW. Output columns are
// independent: convImageVec takes the leading ones it can and convImageGo,
// the definition on every host, the rest.
func ConvBiasActInto(dst, padded, in, w, bias *Tensor, g ConvGeom, act Activation) *Tensor {
	g.Check()
	if in.NumDims() != 4 || in.Shape[1] != g.InC || in.Shape[2] != g.InH || in.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: conv input %v does not match geometry %+v", in.Shape, g))
	}
	b, oh, ow, ph, pw, k := in.Shape[0], g.OutH(), g.OutW(), g.PadH(), g.PadW(), g.InC*g.KH*g.KW
	var biasData []float32
	if bias != nil {
		biasData = bias.Data
	}
	if w.NumDims() != 2 || w.Shape[0] != k || (bias != nil && len(biasData) != w.Shape[1]) {
		panic(fmt.Sprintf("tensor: conv kernel matrix %v with %d biases, want [%d,OutC] with OutC or no bias", w.Shape, len(biasData), k))
	}
	outC := w.Shape[1]
	if dst.NumDims() != 4 || dst.Shape[0] != b || dst.Shape[1] != outC || dst.Shape[2] != oh || dst.Shape[3] != ow || padded.Size() != b*g.InC*ph*pw {
		panic(fmt.Sprintf("tensor: conv dst %v and scratch %v, want [%d,%d,%d,%d] and [%d,%d,%d,%d]", dst.Shape, padded.Shape, b, outC, oh, ow, b, g.InC, ph, pw))
	}
	inLen, padLen, outLen := g.InC*g.InH*g.InW, g.InC*ph*pw, outC*oh*ow
	parallelFor(b, oh*ow*k*outC, func(lo, hi int) {
		var buf [128]int // on the stack for the kernels this repo builds; append grows it otherwise
		taps := g.appendTaps(buf[:0])
		for n := lo; n < hi; n++ {
			img, out := padded.Data[n*padLen:(n+1)*padLen], dst.Data[n*outLen:(n+1)*outLen]
			g.padImage(img, in.Data[n*inLen:(n+1)*inLen])
			convImageGo(out, img, w.Data, biasData, taps, outC, g, convImageVec(out, img, w.Data, biasData, taps, outC, g))
			ApplyActivation(out, act)
		}
	})
	return dst
}

// appendTaps appends, for each tap in (c, ky, kx) order, where it sits
// in the padded image relative to an output element's first tap.
func (g ConvGeom) appendTaps(taps []int) []int {
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				taps = append(taps, (c*g.PadH()+ky)*g.PadW()+kx)
			}
		}
	}
	return taps
}

// padImage writes into dst [InC, PadH, PadW] the image src
// [InC, InH, InW] with a zero border of Pad on every side.
func (g ConvGeom) padImage(dst, src []float32) {
	clear(dst)
	ph, pw := g.PadH(), g.PadW()
	for c := 0; c < g.InC; c++ {
		for y := 0; y < g.InH; y++ {
			copy(dst[(c*ph+y+g.Pad)*pw+g.Pad:][:g.InW], src[(c*g.InH+y)*g.InW:])
		}
	}
}

// convImageGo is the portable convolution of one padded image, bias (if
// any) added, into columns [ox0, OutW) of every row of out
// [OutC, OutH, OutW]: the definition of the kernel's bits.
func convImageGo(out, img, wd, bias []float32, taps []int, outC int, g ConvGeom, ox0 int) {
	oh, ow, pw := g.OutH(), g.OutW(), g.PadW()
	if ox0 == ow {
		return
	}
	for oc := 0; oc < outC; oc++ {
		wc := wd[oc:]
		for oy := 0; oy < oh; oy++ {
			row := out[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow]
			for ox := ox0; ox < ow; ox++ {
				src := img[(oy*pw+ox)*g.Stride:]
				var acc float32
				t := 0
				for ; t+8 <= len(taps); t += 8 {
					acc += src[taps[t]]*wc[t*outC] + src[taps[t+1]]*wc[(t+1)*outC] +
						src[taps[t+2]]*wc[(t+2)*outC] + src[taps[t+3]]*wc[(t+3)*outC] +
						src[taps[t+4]]*wc[(t+4)*outC] + src[taps[t+5]]*wc[(t+5)*outC] +
						src[taps[t+6]]*wc[(t+6)*outC] + src[taps[t+7]]*wc[(t+7)*outC]
				}
				for ; t < len(taps); t++ {
					acc += src[taps[t]] * wc[t*outC]
				}
				if bias != nil {
					acc += bias[oc]
				}
				row[ox] = acc
			}
		}
	}
}

// Im2ColInto lowers a batch input [B, C, H, W] into a caller-owned
// column matrix of shape [B*OutH*OutW, C*KH*KW], so that convolution
// becomes a matrix multiply against a [C*KH*KW, OutC] kernel matrix (the
// backward pass's lowering; the forward is ConvBiasActInto). Images are
// lowered in parallel, each into a disjoint row block. dst may be
// uninitialized: every element, padding included, is written. Returns dst.
func Im2ColInto(dst, in *Tensor, g ConvGeom) *Tensor {
	g.Check()
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
// [B, C, H, W] tensor; it returns out. It is the adjoint of the im2col
// lowering, used for convolution input gradients. Parallelism is per image: every
// scatter-add for image n lands in image n's plane, so concurrent images
// never race.
func Col2ImInto(out, cols *Tensor, g ConvGeom) *Tensor {
	g.Check()
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
	g.Check()
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
