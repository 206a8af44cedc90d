package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// GRU processes a sequence [B, T, In] and returns all hidden states
// [B, T, Hidden]. Gates are packed r|z|n in the weight matrices; the
// candidate uses the r-gated recurrent contribution (the cuDNN/PyTorch
// formulation: n = tanh(x·Wxn + r ⊙ (h·Whn) + bn)).
type GRU struct {
	name       string
	In, Hidden int
	Wx         *tensor.Tensor // [In, 3H]
	Wh         *tensor.Tensor // [H, 3H]
	B          *tensor.Tensor // [3H]
	GWx, GWh   *tensor.Tensor
	GB         *tensor.Tensor
}

// NewGRU creates a GRU layer.
func NewGRU(rng *rand.Rand, name string, in, hidden int) *GRU {
	sx := math.Sqrt(1.0 / float64(in))
	sh := math.Sqrt(1.0 / float64(hidden))
	return &GRU{
		name: name, In: in, Hidden: hidden,
		Wx:  tensor.Randn(rng, sx, in, 3*hidden),
		Wh:  tensor.Randn(rng, sh, hidden, 3*hidden),
		B:   tensor.New(3 * hidden),
		GWx: tensor.New(in, 3*hidden),
		GWh: tensor.New(hidden, 3*hidden),
		GB:  tensor.New(3 * hidden),
	}
}

// gruCtx packs the per-step state for BPTT into four pooled tensors
// (see lstmCtx for the block layout); Backward recycles them.
type gruCtx struct {
	xs    *tensor.Tensor // [T*B, In]   time-major input copy
	hs    *tensor.Tensor // [(T+1)*B, H] hidden states h_0..h_T
	gates *tensor.Tensor // [T*B, 3H]   activated gates r|z|n
	hr    *tensor.Tensor // [T*B, H]    h·Whn pre-gate recurrent candidate
	batch int
	tlen  int
}

// Name implements Layer.
func (g *GRU) Name() string { return g.name }

// Forward implements Layer.
func (g *GRU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 3 || x.Dim(2) != g.In {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T,%d]", g.name, x.Shape, g.In))
	}
	b, T, H := x.Dim(0), x.Dim(1), g.Hidden
	out := tensor.GetRaw(b, T, H) // every row is written below
	cc := &gruCtx{
		xs:    tensor.GetRaw(T*b, g.In),
		hs:    tensor.GetRaw((T+1)*b, H),
		gates: tensor.GetRaw(T*b, 3*H),
		hr:    tensor.GetRaw(T*b, H),
		batch: b, tlen: T,
	}
	for i := 0; i < b*H; i++ {
		cc.hs.Data[i] = 0
	}
	xt := &tensor.Tensor{Shape: []int{b, g.In}}
	hPrev := &tensor.Tensor{Shape: []int{b, H}}
	zx := tensor.Get(b, 3*H)
	zh := tensor.Get(b, 3*H)
	for t := 0; t < T; t++ {
		xBlock := cc.xs.Data[t*b*g.In : (t+1)*b*g.In]
		for n := 0; n < b; n++ {
			copy(xBlock[n*g.In:(n+1)*g.In], x.Data[(n*T+t)*g.In:(n*T+t+1)*g.In])
		}
		xt.Data = xBlock
		hPrevBlock := cc.hs.Data[t*b*H : (t+1)*b*H]
		hPrev.Data = hPrevBlock
		tensor.MatMulInto(zx, xt, g.Wx) // [B, 3H]
		tensor.MatMulInto(zh, hPrev, g.Wh)
		for n := 0; n < b; n++ {
			hrw := zh.Data[n*3*H : (n+1)*3*H]
			copy(cc.hr.Data[(t*b+n)*H:], hrw[2*H:])
			gruCell(cc.gates.Data[(t*b+n)*3*H:], zx.Data[n*3*H:], hrw, g.B.Data,
				hPrevBlock[n*H:], cc.hs.Data[((t+1)*b+n)*H:], out.Data[(n*T+t)*H:], H)
		}
	}
	tensor.Put(zx)
	tensor.Put(zh)
	return out, cc
}

// gruCell is one row of one step. xr and hrw hold the 3H products x·Wx
// and h·Wh, r|z|n; the activated gates go to gr and the new hidden
// state (1−z)·n + z·hPrev to both h and out.
func gruCell(gr, xr, hrw, bias, hPrev, h, out []float32, H int) {
	for j := 0; j < 2*H; j++ {
		gr[j] = xr[j] + hrw[j] + bias[j]
	}
	tensor.Activate(gr[:2*H], gr[:2*H], tensor.ActSigmoid)
	for j := 2 * H; j < 3*H; j++ {
		gr[j] = xr[j] + gr[j-2*H]*hrw[j] + bias[j]
	}
	tensor.Activate(gr[2*H:3*H], gr[2*H:3*H], tensor.ActTanh)
	for j := 0; j < H; j++ {
		z := gr[H+j]
		hv := (1-z)*gr[2*H+j] + z*hPrev[j]
		h[j], out[j] = hv, hv
	}
}

// Backward implements Layer. It recycles the packed forward context
// when it returns.
func (g *GRU) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	cc := ctx.(*gruCtx)
	b, T, H := cc.batch, cc.tlen, g.Hidden
	if gradOut.NumDims() != 3 || gradOut.Dim(0) != b || gradOut.Dim(1) != T || gradOut.Dim(2) != H {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d,%d]", g.name, gradOut.Shape, b, T, H))
	}
	zero(g.GWx, g.GWh, g.GB)            // summed over the T steps below
	gradIn := tensor.GetRaw(b, T, g.In) // every row is copied into below
	dhNext := tensor.Get(b, H)
	dhPrev := tensor.Get(b, H)
	dzx := tensor.Get(b, 3*H) // grad w.r.t. x·Wx pre-activations
	dzh := tensor.Get(b, 3*H) // grad w.r.t. h·Wh pre-activations
	dx := tensor.Get(b, g.In)
	xv := &tensor.Tensor{Shape: []int{b, g.In}}
	hv := &tensor.Tensor{Shape: []int{b, H}}
	for t := T - 1; t >= 0; t-- {
		dh := dhNext
		for n := 0; n < b; n++ {
			for j := 0; j < H; j++ {
				dh.Data[n*H+j] += gradOut.Data[(n*T+t)*H+j]
			}
		}
		hPrevBlock := cc.hs.Data[t*b*H:]
		for n := 0; n < b; n++ {
			gr := cc.gates.Data[(t*b+n)*3*H:]
			hcRow := cc.hr.Data[(t*b+n)*H:]
			for j := 0; j < H; j++ {
				k := n*H + j
				dhv := dh.Data[k]
				r, z, nv := gr[j], gr[H+j], gr[2*H+j]
				// h = (1-z)·n + z·hPrev
				dn := dhv * (1 - z)
				dz := dhv * (hPrevBlock[k] - nv)
				dhPrev.Data[k] = dhv * z
				// n = tanh(xn + r·hr + bn)
				dnPre := dn * (1 - nv*nv)
				dr := dnPre * hcRow[j]
				// Pre-activation grads.
				drPre := dr * r * (1 - r)
				dzPre := dz * z * (1 - z)
				xr := dzx.Data[n*3*H:]
				hr := dzh.Data[n*3*H:]
				xr[j], hr[j] = drPre, drPre
				xr[H+j], hr[H+j] = dzPre, dzPre
				xr[2*H+j] = dnPre
				hr[2*H+j] = dnPre * r
				// hPrev also feeds r and z pre-activations via Wh rows
				// (handled below through dzh·Whᵀ).
			}
		}
		xv.Data = cc.xs.Data[t*b*g.In : (t+1)*b*g.In]
		hv.Data = cc.hs.Data[t*b*H : (t+1)*b*H]
		addMatMulTransA(g.GWx, xv, dzx)
		addMatMulTransA(g.GWh, hv, dzh)
		// Bias gradient: r and z biases get the shared pre-activation
		// grads; the candidate bias bn gets dnPre (the x-side grad).
		addSumRows(g.GB, dzx)
		tensor.MatMulTransBInto(dx, dzx, g.Wx)
		for n := 0; n < b; n++ {
			copy(gradIn.Data[(n*T+t)*g.In:(n*T+t+1)*g.In], dx.Data[n*g.In:(n+1)*g.In])
		}
		tensor.MatMulTransBInto(dhNext, dzh, g.Wh)
		dhNext.Add(dhPrev)
	}
	tensor.Put(dhNext)
	tensor.Put(dhPrev)
	tensor.Put(dzx)
	tensor.Put(dzh)
	tensor.Put(dx)
	g.discard(cc)
	return gradIn
}

// discard implements contextDiscarder.
func (g *GRU) discard(ctx Context) {
	cc := ctx.(*gruCtx)
	tensor.Put(cc.xs)
	tensor.Put(cc.hs)
	tensor.Put(cc.gates)
	tensor.Put(cc.hr)
}

// Params implements Layer.
func (g *GRU) Params() []*tensor.Tensor { return []*tensor.Tensor{g.Wx, g.Wh, g.B} }

// Grads implements Layer.
func (g *GRU) Grads() []*tensor.Tensor { return []*tensor.Tensor{g.GWx, g.GWh, g.GB} }
