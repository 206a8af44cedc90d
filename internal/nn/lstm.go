package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// LSTM processes a sequence [B, T, In] and returns all hidden states
// [B, T, Hidden]. Gates are packed i|f|g|o in the weight matrices. The full
// backward pass implements truncated-to-sequence BPTT.
type LSTM struct {
	name       string
	In, Hidden int
	Wx         *tensor.Tensor // [In, 4H]
	Wh         *tensor.Tensor // [H, 4H]
	B          *tensor.Tensor // [4H]
	GWx, GWh   *tensor.Tensor
	GB         *tensor.Tensor
}

// NewLSTM creates an LSTM layer. The forget-gate bias is initialized to 1,
// the standard trick to ease early gradient flow.
func NewLSTM(rng *rand.Rand, name string, in, hidden int) *LSTM {
	sx := math.Sqrt(1.0 / float64(in))
	sh := math.Sqrt(1.0 / float64(hidden))
	l := &LSTM{
		name: name, In: in, Hidden: hidden,
		Wx:  tensor.Randn(rng, sx, in, 4*hidden),
		Wh:  tensor.Randn(rng, sh, hidden, 4*hidden),
		B:   tensor.New(4 * hidden),
		GWx: tensor.New(in, 4*hidden),
		GWh: tensor.New(hidden, 4*hidden),
		GB:  tensor.New(4 * hidden),
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B.Data[j] = 1
	}
	return l
}

// lstmCtx packs everything the backward pass needs into five pooled
// tensors instead of ~10 small allocations per time step. Time step t
// occupies row block t of each tensor; hs/cs carry one extra leading
// block for the zero initial state, so step t reads block t and writes
// block t+1. Backward recycles all five when it finishes.
type lstmCtx struct {
	xs    *tensor.Tensor // [T*B, In]  time-major input copy
	hs    *tensor.Tensor // [(T+1)*B, H] hidden states h_0..h_T
	cs    *tensor.Tensor // [(T+1)*B, H] cell states c_0..c_T
	gates *tensor.Tensor // [T*B, 4H]  activated gates i|f|g|o
	tanhc *tensor.Tensor // [T*B, H]   tanh of the cell state
	batch int
	tlen  int
}

// Name implements Layer.
func (l *LSTM) Name() string { return l.name }

// Forward implements Layer.
func (l *LSTM) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 3 || x.Dim(2) != l.In {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T,%d]", l.name, x.Shape, l.In))
	}
	b, T, H := x.Dim(0), x.Dim(1), l.Hidden
	out := tensor.GetRaw(b, T, H) // every row is written below
	cc := &lstmCtx{
		xs:    tensor.GetRaw(T*b, l.In),
		hs:    tensor.GetRaw((T+1)*b, H),
		cs:    tensor.GetRaw((T+1)*b, H),
		gates: tensor.GetRaw(T*b, 4*H),
		tanhc: tensor.GetRaw(T*b, H),
		batch: b, tlen: T,
	}
	// Zero initial state (only block 0; later blocks are overwritten).
	for i := 0; i < b*H; i++ {
		cc.hs.Data[i] = 0
		cc.cs.Data[i] = 0
	}
	// Reusable view headers over the packed blocks; the kernels capture
	// only the Data slices, so re-pointing Data per step is safe.
	xt := &tensor.Tensor{Shape: []int{b, l.In}}
	hPrev := &tensor.Tensor{Shape: []int{b, H}}
	z := tensor.Get(b, 4*H)
	zh := tensor.Get(b, 4*H)
	for t := 0; t < T; t++ {
		xBlock := cc.xs.Data[t*b*l.In : (t+1)*b*l.In]
		for n := 0; n < b; n++ {
			copy(xBlock[n*l.In:(n+1)*l.In], x.Data[(n*T+t)*l.In:(n*T+t+1)*l.In])
		}
		xt.Data = xBlock
		hPrev.Data = cc.hs.Data[t*b*H : (t+1)*b*H]
		tensor.MatMulInto(z, xt, l.Wx)
		tensor.MatMulInto(zh, hPrev, l.Wh)
		z.Add(zh)
		tensor.AddRowVector(z, l.B)
		for n := 0; n < b; n++ {
			r, r1 := t*b+n, (t+1)*b+n
			lstmCell(cc.gates.Data[r*4*H:], z.Data[n*4*H:], cc.cs.Data[r*H:], cc.cs.Data[r1*H:],
				cc.tanhc.Data[r*H:], cc.hs.Data[r1*H:], out.Data[(n*T+t)*H:], H)
		}
	}
	tensor.Put(z)
	tensor.Put(zh)
	return out, cc
}

// lstmCell is one row of one step. zr holds the 4H pre-activations
// i|f|g|o; the activated gates go to gr, the new cell state to c, its
// tanh to tc, and the hidden state o·tanh(c) to both h and out.
func lstmCell(gr, zr, cPrev, c, tc, h, out []float32, H int) {
	tensor.Activate(gr[:2*H], zr[:2*H], tensor.ActSigmoid)
	tensor.Activate(gr[2*H:3*H], zr[2*H:3*H], tensor.ActTanh)
	tensor.Activate(gr[3*H:4*H], zr[3*H:4*H], tensor.ActSigmoid)
	for j := 0; j < H; j++ {
		c[j] = gr[H+j]*cPrev[j] + gr[j]*gr[2*H+j]
	}
	tensor.Activate(tc[:H], c[:H], tensor.ActTanh)
	for j := 0; j < H; j++ {
		hv := gr[3*H+j] * tc[j]
		h[j], out[j] = hv, hv
	}
}

// Backward implements Layer. It recycles the packed forward context
// when it returns.
func (l *LSTM) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	cc := ctx.(*lstmCtx)
	b, T, H := cc.batch, cc.tlen, l.Hidden
	if gradOut.NumDims() != 3 || gradOut.Dim(0) != b || gradOut.Dim(1) != T || gradOut.Dim(2) != H {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d,%d]", l.name, gradOut.Shape, b, T, H))
	}
	zero(l.GWx, l.GWh, l.GB)            // summed over the T steps below
	gradIn := tensor.GetRaw(b, T, l.In) // every row is copied into below
	// All per-step scratch is pooled and recycled across the T steps:
	// dcPrev/dcNext double-buffer (every element is overwritten each
	// step) and dhNext is rewritten in place by the Wh product.
	dhNext := tensor.Get(b, H)
	dcNext := tensor.Get(b, H)
	dcPrev := tensor.Get(b, H)
	dz := tensor.Get(b, 4*H)
	dx := tensor.Get(b, l.In)
	xv := &tensor.Tensor{Shape: []int{b, l.In}}
	hv := &tensor.Tensor{Shape: []int{b, H}}
	for t := T - 1; t >= 0; t-- {
		// dh = grad from output at t + grad from t+1.
		dh := dhNext
		for n := 0; n < b; n++ {
			for j := 0; j < H; j++ {
				dh.Data[n*H+j] += gradOut.Data[(n*T+t)*H+j]
			}
		}
		for n := 0; n < b; n++ {
			gr := cc.gates.Data[(t*b+n)*4*H:]
			tcRow := cc.tanhc.Data[(t*b+n)*H:]
			cPrevRow := cc.cs.Data[(t*b+n)*H:]
			for j := 0; j < H; j++ {
				k := n*H + j
				iv, fv, gv, ov := gr[j], gr[H+j], gr[2*H+j], gr[3*H+j]
				dhv := dh.Data[k]
				dc := dcNext.Data[k] + dhv*ov*(1-tcRow[j]*tcRow[j])
				di := dc * gv
				df := dc * cPrevRow[j]
				dg := dc * iv
				do := dhv * tcRow[j]
				zr := dz.Data[n*4*H:]
				zr[j] = di * iv * (1 - iv)
				zr[H+j] = df * fv * (1 - fv)
				zr[2*H+j] = dg * (1 - gv*gv)
				zr[3*H+j] = do * ov * (1 - ov)
				dcPrev.Data[k] = dc * fv
			}
		}
		xv.Data = cc.xs.Data[t*b*l.In : (t+1)*b*l.In]
		hv.Data = cc.hs.Data[t*b*H : (t+1)*b*H]
		addMatMulTransA(l.GWx, xv, dz)
		addMatMulTransA(l.GWh, hv, dz)
		addSumRows(l.GB, dz)
		tensor.MatMulTransBInto(dx, dz, l.Wx) // dz · Wxᵀ = [B, In]
		for n := 0; n < b; n++ {
			copy(gradIn.Data[(n*T+t)*l.In:(n*T+t+1)*l.In], dx.Data[n*l.In:(n+1)*l.In])
		}
		tensor.MatMulTransBInto(dhNext, dz, l.Wh) // dz · Whᵀ = [B, H]
		dcNext, dcPrev = dcPrev, dcNext
	}
	tensor.Put(dhNext)
	tensor.Put(dcNext)
	tensor.Put(dcPrev)
	tensor.Put(dz)
	tensor.Put(dx)
	l.discard(cc)
	return gradIn
}

// discard implements contextDiscarder.
func (l *LSTM) discard(ctx Context) {
	cc := ctx.(*lstmCtx)
	tensor.Put(cc.xs)
	tensor.Put(cc.hs)
	tensor.Put(cc.cs)
	tensor.Put(cc.gates)
	tensor.Put(cc.tanhc)
}

// Params implements Layer.
func (l *LSTM) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Wx, l.Wh, l.B} }

// Grads implements Layer.
func (l *LSTM) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.GWx, l.GWh, l.GB} }

// LastStep extracts the final time step of a [B, T, H] sequence as [B, H].
// It is a layer so sequence models can feed a classifier head.
type LastStep struct{ name string }

// NewLastStep creates a LastStep layer.
func NewLastStep(name string) *LastStep { return &LastStep{name: name} }

type lastStepCtx struct{ shape [3]int }

// Name implements Layer.
func (s *LastStep) Name() string { return s.name }

// Forward implements Layer.
func (s *LastStep) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 3 {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T,H]", s.name, x.Shape))
	}
	b, T, H := x.Dim(0), x.Dim(1), x.Dim(2)
	y := tensor.GetRaw(b, H)
	for n := 0; n < b; n++ {
		copy(y.Data[n*H:(n+1)*H], x.Data[(n*T+T-1)*H:(n*T+T)*H])
	}
	return y, lastStepCtx{shape: [3]int(x.Shape)}
}

// Backward implements Layer.
func (s *LastStep) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(lastStepCtx)
	b, T, H := c.shape[0], c.shape[1], c.shape[2]
	g := tensor.Get(b, T, H)
	for n := 0; n < b; n++ {
		copy(g.Data[(n*T+T-1)*H:(n*T+T)*H], gradOut.Data[n*H:(n+1)*H])
	}
	return g
}

// Params implements Layer.
func (s *LastStep) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (s *LastStep) Grads() []*tensor.Tensor { return nil }

// FlattenTime reshapes [B, T, H] to [B*T, H] so a Dense head can be applied
// to every time step (used by language models).
type FlattenTime struct{ name string }

// NewFlattenTime creates a FlattenTime layer.
func NewFlattenTime(name string) *FlattenTime { return &FlattenTime{name: name} }

type flattenTimeCtx struct{ shape [3]int }

// Name implements Layer.
func (s *FlattenTime) Name() string { return s.name }

// Forward implements Layer.
func (s *FlattenTime) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 3 {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T,H]", s.name, x.Shape))
	}
	return x.Reshape(x.Dim(0)*x.Dim(1), x.Dim(2)), flattenTimeCtx{shape: [3]int(x.Shape)}
}

// Backward implements Layer.
func (s *FlattenTime) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(flattenTimeCtx)
	return gradOut.Reshape(c.shape[:]...)
}

// Params implements Layer.
func (s *FlattenTime) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (s *FlattenTime) Grads() []*tensor.Tensor { return nil }
