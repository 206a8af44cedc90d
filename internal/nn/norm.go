package nn

import (
	"fmt"
	"math"

	"pipedream/internal/tensor"
)

// LayerNorm normalizes each row of a [B, D] input to zero mean and unit
// variance, then applies a learned affine transform (gain, bias). Unlike
// batch normalization it carries no cross-minibatch running statistics,
// which makes it safe under pipelined execution where minibatches of
// different ages interleave.
type LayerNorm struct {
	name    string
	Dim     int
	Eps     float64
	Gain, B *tensor.Tensor
	GG, GB  *tensor.Tensor
}

// NewLayerNorm creates a LayerNorm over the trailing dimension dim.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		name: name, Dim: dim, Eps: 1e-5,
		Gain: tensor.Ones(dim), B: tensor.New(dim),
		GG: tensor.New(dim), GB: tensor.New(dim),
	}
}

// layerNormCtx keeps the normalized input and per-row 1/sqrt(var+eps)
// in pooled tensors (invStd element n is carried in float64 precision
// split across computation, stored rounded to float32 — well inside
// the float32 gradient noise floor). Backward recycles both.
type layerNormCtx struct {
	xhat   *tensor.Tensor // normalized input [B, D]
	invStd *tensor.Tensor // per-row 1/sqrt(var+eps) [B]
}

// Name implements Layer.
func (l *LayerNorm) Name() string { return l.name }

// Forward implements Layer.
func (l *LayerNorm) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 2 || x.Dim(1) != l.Dim {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,%d]", l.name, x.Shape, l.Dim))
	}
	b, d := x.Dim(0), l.Dim
	y := tensor.GetRaw(b, d)
	xhat := tensor.GetRaw(b, d)
	invStd := tensor.GetRaw(b)
	for n := 0; n < b; n++ {
		row := x.Data[n*d : (n+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varSum float64
		for _, v := range row {
			dv := float64(v) - mean
			varSum += dv * dv
		}
		inv := 1 / math.Sqrt(varSum/float64(d)+l.Eps)
		invStd.Data[n] = float32(inv)
		for j, v := range row {
			xh := float32((float64(v) - mean) * inv)
			xhat.Data[n*d+j] = xh
			y.Data[n*d+j] = xh*l.Gain.Data[j] + l.B.Data[j]
		}
	}
	return y, &layerNormCtx{xhat: xhat, invStd: invStd}
}

// Backward implements Layer. It recycles the pooled forward context.
func (l *LayerNorm) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*layerNormCtx)
	b, d := c.xhat.Dim(0), l.Dim
	if gradOut.Size() != b*d {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d]", l.name, gradOut.Shape, b, d))
	}
	zero(l.GG, l.GB)            // summed over the rows below
	grad := tensor.GetRaw(b, d) // every element is written below
	for n := 0; n < b; n++ {
		gRow := gradOut.Data[n*d : (n+1)*d]
		xhRow := c.xhat.Data[n*d : (n+1)*d]
		// dL/dxhat and its row statistics.
		var sumDx, sumDxXh float64
		for j := 0; j < d; j++ {
			dxh := float64(gRow[j]) * float64(l.Gain.Data[j])
			sumDx += dxh
			sumDxXh += dxh * float64(xhRow[j])
			l.GG.Data[j] += gRow[j] * xhRow[j]
			l.GB.Data[j] += gRow[j]
		}
		meanDx := sumDx / float64(d)
		meanDxXh := sumDxXh / float64(d)
		for j := 0; j < d; j++ {
			dxh := float64(gRow[j]) * float64(l.Gain.Data[j])
			grad.Data[n*d+j] = float32(float64(c.invStd.Data[n]) * (dxh - meanDx - float64(xhRow[j])*meanDxXh))
		}
	}
	l.discard(c)
	return grad
}

// discard implements contextDiscarder.
func (l *LayerNorm) discard(ctx Context) {
	c := ctx.(*layerNormCtx)
	tensor.Put(c.xhat)
	tensor.Put(c.invStd)
}

// Params implements Layer.
func (l *LayerNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Gain, l.B} }

// Grads implements Layer.
func (l *LayerNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.GG, l.GB} }

// AvgPool2D is an average-pooling layer over [B, C, H, W].
type AvgPool2D struct {
	name string
	Geom tensor.ConvGeom
}

// NewAvgPool2D creates an average-pooling layer.
func NewAvgPool2D(name string, g tensor.ConvGeom) *AvgPool2D {
	g.Check()
	return &AvgPool2D{name: name, Geom: g}
}

type avgPoolCtx struct{ inShape [4]int }

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	g := a.Geom
	if x.NumDims() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		panic(fmt.Sprintf("nn: %s forward input %v does not match %+v", a.name, x.Shape, g))
	}
	b := x.Dim(0)
	oh, ow := g.OutH(), g.OutW()
	y := tensor.GetRaw(b, g.InC, oh, ow) // every element is written below
	inv := 1 / float32(g.KH*g.KW)
	oi := 0
	for n := 0; n < b; n++ {
		for c := 0; c < g.InC; c++ {
			base := (n*g.InC + c) * g.InH * g.InW
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
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
							s += x.Data[base+iy*g.InW+ix]
						}
					}
					y.Data[oi] = s * inv
					oi++
				}
			}
		}
	}
	return y, avgPoolCtx{inShape: [4]int(x.Shape)}
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(avgPoolCtx)
	g := a.Geom
	grad := tensor.Get(c.inShape[:]...)
	b := c.inShape[0]
	oh, ow := g.OutH(), g.OutW()
	inv := 1 / float32(g.KH*g.KW)
	oi := 0
	for n := 0; n < b; n++ {
		for ch := 0; ch < g.InC; ch++ {
			base := (n*g.InC + ch) * g.InH * g.InW
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := gradOut.Data[oi] * inv
					oi++
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
							grad.Data[base+iy*g.InW+ix] += gv
						}
					}
				}
			}
		}
	}
	return grad
}

// Params implements Layer.
func (a *AvgPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (a *AvgPool2D) Grads() []*tensor.Tensor { return nil }

// Residual wraps an inner layer stack with an identity skip connection:
// y = x + F(x). Input and output shapes of the inner stack must match.
type Residual struct {
	name  string
	Inner *Sequential
}

// NewResidual creates a residual block around inner.
func NewResidual(name string, inner *Sequential) *Residual {
	return &Residual{name: name, Inner: inner}
}

// residualCtx holds the inner stack's context and its output y, which the
// block owns: nothing outside it sees y, only x + y. y is nil when the
// inner stack handed back (a view of) x itself, which is the caller's.
type residualCtx struct {
	inner *SeqContext
	y     *tensor.Tensor
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	y, ctx := r.Inner.Forward(x, train)
	if !y.SameShape(x) {
		panic(fmt.Sprintf("nn: %s inner output %v does not match input %v", r.name, y.Shape, x.Shape))
	}
	out := tensor.GetRaw(y.Shape...)
	tensor.AddInto(out.Data, y.Data, x.Data)
	if tensor.SharesStorage(y, x) {
		y = nil
	}
	return out, &residualCtx{inner: ctx, y: y}
}

// Backward implements Layer.
func (r *Residual) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*residualCtx)
	gradInner := r.Inner.Backward(c.inner, gradOut)
	grad := tensor.GetRaw(gradInner.Shape...)
	tensor.AddInto(grad.Data, gradInner.Data, gradOut.Data)
	// The inner gradient is the block's unless the inner stack passed
	// gradOut through.
	if !tensor.SharesStorage(gradInner, gradOut) {
		tensor.Put(gradInner)
	}
	tensor.Put(c.y)
	return grad
}

// discard implements contextDiscarder.
func (r *Residual) discard(ctx Context) {
	c := ctx.(*residualCtx)
	r.Inner.Discard(c.inner)
	tensor.Put(c.y)
}

// Params implements Layer.
func (r *Residual) Params() []*tensor.Tensor { return r.Inner.Params() }

// Grads implements Layer.
func (r *Residual) Grads() []*tensor.Tensor { return r.Inner.Grads() }
