package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipedream/internal/tensor"
)

// SelfAttention is scaled dot-product self-attention over [B, T, H]
// sequences: Y = softmax(QKᵀ/√H)·V·Wo with Q/K/V projections of the input
// (single-head; §2.3's "attention layers" in trainable form). Like every
// layer here, it keeps per-minibatch contexts, so it pipelines under
// 1F1B with weight stashing.
type SelfAttention struct {
	name           string
	Hidden         int
	Wq, Wk, Wv, Wo *tensor.Tensor // [H, H] each
	GWq, GWk       *tensor.Tensor
	GWv, GWo       *tensor.Tensor
}

// NewSelfAttention creates a self-attention layer.
func NewSelfAttention(rng *rand.Rand, name string, hidden int) *SelfAttention {
	s := math.Sqrt(1.0 / float64(hidden))
	return &SelfAttention{
		name: name, Hidden: hidden,
		Wq: tensor.Randn(rng, s, hidden, hidden), Wk: tensor.Randn(rng, s, hidden, hidden),
		Wv: tensor.Randn(rng, s, hidden, hidden), Wo: tensor.Randn(rng, s, hidden, hidden),
		GWq: tensor.New(hidden, hidden), GWk: tensor.New(hidden, hidden),
		GWv: tensor.New(hidden, hidden), GWo: tensor.New(hidden, hidden),
	}
}

type attnCtx struct {
	x          *tensor.Tensor   // [B,T,H] input
	q, k, v    []*tensor.Tensor // per-sample [T,H]
	attn       []*tensor.Tensor // per-sample softmax weights [T,T]
	ctxv       []*tensor.Tensor // per-sample attention output before Wo [T,H]
	batch, seq int
}

// Name implements Layer.
func (a *SelfAttention) Name() string { return a.name }

// Forward implements Layer.
func (a *SelfAttention) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 3 || x.Dim(2) != a.Hidden {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T,%d]", a.name, x.Shape, a.Hidden))
	}
	b, T, H := x.Dim(0), x.Dim(1), a.Hidden
	out := tensor.GetRaw(b, T, H) // every sample's block is written below
	c := &attnCtx{x: x, batch: b, seq: T,
		q: make([]*tensor.Tensor, b), k: make([]*tensor.Tensor, b),
		v: make([]*tensor.Tensor, b), attn: make([]*tensor.Tensor, b),
		ctxv: make([]*tensor.Tensor, b)}
	scale := float32(1 / math.Sqrt(float64(H)))
	for n := 0; n < b; n++ {
		xn := tensor.FromSlice(x.Data[n*T*H:(n+1)*T*H], T, H)
		q := tensor.MatMulInto(tensor.GetRaw(T, H), xn, a.Wq)
		k := tensor.MatMulInto(tensor.GetRaw(T, H), xn, a.Wk)
		v := tensor.MatMulInto(tensor.GetRaw(T, H), xn, a.Wv)
		scores := tensor.GetRaw(T, T)
		tensor.MatMulTransBInto(scores, q, k)
		scores.Scale(scale)
		attn := tensor.GetRaw(T, T)
		softmaxRowsInto(attn, scores)
		tensor.Put(scores)
		ctxv := tensor.MatMulInto(tensor.GetRaw(T, H), attn, v)
		tensor.MatMulInto(tensor.FromSlice(out.Data[n*T*H:(n+1)*T*H], T, H), ctxv, a.Wo)
		c.q[n], c.k[n], c.v[n], c.attn[n], c.ctxv[n] = q, k, v, attn, ctxv
	}
	return out, c
}

// Backward implements Layer.
func (a *SelfAttention) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*attnCtx)
	b, T, H := c.batch, c.seq, a.Hidden
	if gradOut.Size() != b*T*H {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d,%d]", a.name, gradOut.Shape, b, T, H))
	}
	zero(a.GWq, a.GWk, a.GWv, a.GWo) // summed over the samples below
	gradIn := tensor.GetRaw(b, T, H) // every sample's block is written below
	scale := float32(1 / math.Sqrt(float64(H)))
	for n := 0; n < b; n++ {
		xn := tensor.FromSlice(c.x.Data[n*T*H:(n+1)*T*H], T, H)
		gy := tensor.FromSlice(gradOut.Data[n*T*H:(n+1)*T*H], T, H)
		// Y = ctxv·Wo
		addMatMulTransA(a.GWo, c.ctxv[n], gy)
		gCtx := tensor.Get(T, H)
		tensor.MatMulTransBInto(gCtx, gy, a.Wo)
		// ctxv = attn·v
		gAttn := tensor.Get(T, T)
		tensor.MatMulTransBInto(gAttn, gCtx, c.v[n])
		gV := tensor.Get(T, H)
		tensor.MatMulTransAInto(gV, c.attn[n], gCtx)
		tensor.Put(gCtx)
		// attn = softmax(scores): dS = attn ⊙ (dA − rowsum(dA⊙attn))
		gScores := tensor.Get(T, T)
		for i := 0; i < T; i++ {
			var dot float64
			for j := 0; j < T; j++ {
				dot += float64(gAttn.At(i, j)) * float64(c.attn[n].At(i, j))
			}
			for j := 0; j < T; j++ {
				gScores.Set(c.attn[n].At(i, j)*(gAttn.At(i, j)-float32(dot)), i, j)
			}
		}
		tensor.Put(gAttn)
		gScores.Scale(scale)
		// scores = q·kᵀ
		gQ := tensor.Get(T, H)
		tensor.MatMulInto(gQ, gScores, c.k[n])
		gK := tensor.Get(T, H)
		tensor.MatMulTransAInto(gK, gScores, c.q[n])
		tensor.Put(gScores)
		// q = x·Wq etc.
		addMatMulTransA(a.GWq, xn, gQ)
		addMatMulTransA(a.GWk, xn, gK)
		addMatMulTransA(a.GWv, xn, gV)
		gx := tensor.FromSlice(gradIn.Data[n*T*H:(n+1)*T*H], T, H)
		tensor.MatMulTransBInto(gx, gQ, a.Wq)
		addMatMulTransB(gx, gK, a.Wk)
		addMatMulTransB(gx, gV, a.Wv)
		tensor.Put(gQ)
		tensor.Put(gK)
		tensor.Put(gV)
	}
	a.discard(c)
	return gradIn
}

// discard implements contextDiscarder: the per-sample projections and
// attention weights are the layer's own.
func (a *SelfAttention) discard(ctx Context) {
	c := ctx.(*attnCtx)
	for n := range c.q {
		tensor.Put(c.q[n])
		tensor.Put(c.k[n])
		tensor.Put(c.v[n])
		tensor.Put(c.attn[n])
		tensor.Put(c.ctxv[n])
	}
}

// Params implements Layer.
func (a *SelfAttention) Params() []*tensor.Tensor {
	return []*tensor.Tensor{a.Wq, a.Wk, a.Wv, a.Wo}
}

// Grads implements Layer.
func (a *SelfAttention) Grads() []*tensor.Tensor {
	return []*tensor.Tensor{a.GWq, a.GWk, a.GWv, a.GWo}
}

// softmaxRowsInto applies a numerically stable softmax to each row of a
// 2-D tensor: dst must have t's shape and is fully overwritten.
func softmaxRowsInto(dst, t *tensor.Tensor) {
	rows, cols := t.Dim(0), t.Dim(1)
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		for j, v := range row {
			dst.Data[i*cols+j] = float32(math.Exp(float64(v-maxV)) / sum)
		}
	}
}

// MultiHeadAttention splits the hidden dimension across independent
// attention heads (the transformer formulation): each head runs scaled
// dot-product attention over its H/heads-wide slice of the Q/K/V
// projections, and the concatenated head outputs pass through Wo.
type MultiHeadAttention struct {
	name           string
	Hidden, Heads  int
	Wq, Wk, Wv, Wo *tensor.Tensor
	GWq, GWk       *tensor.Tensor
	GWv, GWo       *tensor.Tensor
}

// NewMultiHeadAttention creates a multi-head attention layer; hidden must
// be divisible by heads.
func NewMultiHeadAttention(rng *rand.Rand, name string, hidden, heads int) *MultiHeadAttention {
	if heads < 1 || hidden%heads != 0 {
		panic(fmt.Sprintf("nn: %s: hidden %d not divisible by %d heads", name, hidden, heads))
	}
	s := math.Sqrt(1.0 / float64(hidden))
	return &MultiHeadAttention{
		name: name, Hidden: hidden, Heads: heads,
		Wq: tensor.Randn(rng, s, hidden, hidden), Wk: tensor.Randn(rng, s, hidden, hidden),
		Wv: tensor.Randn(rng, s, hidden, hidden), Wo: tensor.Randn(rng, s, hidden, hidden),
		GWq: tensor.New(hidden, hidden), GWk: tensor.New(hidden, hidden),
		GWv: tensor.New(hidden, hidden), GWo: tensor.New(hidden, hidden),
	}
}

type mhaCtx struct {
	x          *tensor.Tensor
	q, k, v    []*tensor.Tensor   // per-sample [T,H]
	attn       [][]*tensor.Tensor // per-sample, per-head [T,T]
	ctxv       []*tensor.Tensor   // per-sample concatenated head outputs [T,H]
	batch, seq int
}

// Name implements Layer.
func (a *MultiHeadAttention) Name() string { return a.name }

// headView returns the [T, Dh] sub-matrix of a [T, H] tensor for head h
// as a pooled tensor (row-major slices of the head's columns). Callers
// own the result and should tensor.Put it when done.
func headView(t *tensor.Tensor, h, heads int) *tensor.Tensor {
	T, H := t.Dim(0), t.Dim(1)
	dh := H / heads
	out := tensor.Get(T, dh)
	for i := 0; i < T; i++ {
		copy(out.Data[i*dh:(i+1)*dh], t.Data[i*H+h*dh:i*H+(h+1)*dh])
	}
	return out
}

// headAdd adds a [T, Dh] head matrix into the head-h columns of a [T, H]
// tensor.
func headAdd(dst *tensor.Tensor, src *tensor.Tensor, h, heads int) {
	T, H := dst.Dim(0), dst.Dim(1)
	dh := H / heads
	for i := 0; i < T; i++ {
		for j := 0; j < dh; j++ {
			dst.Data[i*H+h*dh+j] += src.Data[i*dh+j]
		}
	}
}

// Forward implements Layer.
func (a *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Context) {
	if x.NumDims() != 3 || x.Dim(2) != a.Hidden {
		panic(fmt.Sprintf("nn: %s forward input %v, want [B,T,%d]", a.name, x.Shape, a.Hidden))
	}
	b, T, H := x.Dim(0), x.Dim(1), a.Hidden
	dh := H / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := tensor.GetRaw(b, T, H) // every sample's block is written below
	c := &mhaCtx{x: x, batch: b, seq: T,
		q: make([]*tensor.Tensor, b), k: make([]*tensor.Tensor, b),
		v: make([]*tensor.Tensor, b), attn: make([][]*tensor.Tensor, b),
		ctxv: make([]*tensor.Tensor, b)}
	for n := 0; n < b; n++ {
		xn := tensor.FromSlice(x.Data[n*T*H:(n+1)*T*H], T, H)
		q := tensor.MatMulInto(tensor.GetRaw(T, H), xn, a.Wq)
		k := tensor.MatMulInto(tensor.GetRaw(T, H), xn, a.Wk)
		v := tensor.MatMulInto(tensor.GetRaw(T, H), xn, a.Wv)
		ctxv := tensor.Get(T, H) // the heads add their columns into zeros
		c.attn[n] = make([]*tensor.Tensor, a.Heads)
		for h := 0; h < a.Heads; h++ {
			qh, kh, vh := headView(q, h, a.Heads), headView(k, h, a.Heads), headView(v, h, a.Heads)
			scores := tensor.GetRaw(T, T)
			tensor.MatMulTransBInto(scores, qh, kh)
			attn := tensor.GetRaw(T, T)
			softmaxRowsInto(attn, scores.Scale(scale))
			tensor.Put(scores)
			ctxh := tensor.Get(T, H/a.Heads)
			tensor.MatMulInto(ctxh, attn, vh)
			headAdd(ctxv, ctxh, h, a.Heads)
			tensor.Put(ctxh)
			tensor.Put(qh)
			tensor.Put(kh)
			tensor.Put(vh)
			c.attn[n][h] = attn
		}
		tensor.MatMulInto(tensor.FromSlice(out.Data[n*T*H:(n+1)*T*H], T, H), ctxv, a.Wo)
		c.q[n], c.k[n], c.v[n], c.ctxv[n] = q, k, v, ctxv
	}
	return out, c
}

// Backward implements Layer.
func (a *MultiHeadAttention) Backward(ctx Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*mhaCtx)
	b, T, H := c.batch, c.seq, a.Hidden
	if gradOut.Size() != b*T*H {
		panic(fmt.Sprintf("nn: %s backward grad %v, want [%d,%d,%d]", a.name, gradOut.Shape, b, T, H))
	}
	dh := H / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	zero(a.GWq, a.GWk, a.GWv, a.GWo) // summed over the samples below
	gradIn := tensor.GetRaw(b, T, H) // every sample's block is written below
	for n := 0; n < b; n++ {
		xn := tensor.FromSlice(c.x.Data[n*T*H:(n+1)*T*H], T, H)
		gy := tensor.FromSlice(gradOut.Data[n*T*H:(n+1)*T*H], T, H)
		addMatMulTransA(a.GWo, c.ctxv[n], gy)
		gCtx := tensor.Get(T, H)
		tensor.MatMulTransBInto(gCtx, gy, a.Wo)
		gQ := tensor.Get(T, H)
		gK := tensor.Get(T, H)
		gV := tensor.Get(T, H)
		for h := 0; h < a.Heads; h++ {
			qh := headView(c.q[n], h, a.Heads)
			kh := headView(c.k[n], h, a.Heads)
			vh := headView(c.v[n], h, a.Heads)
			attn := c.attn[n][h]
			gCtxH := headView(gCtx, h, a.Heads)
			gAttn := tensor.Get(T, T)
			tensor.MatMulTransBInto(gAttn, gCtxH, vh)
			gVh := tensor.Get(T, H/a.Heads)
			tensor.MatMulTransAInto(gVh, attn, gCtxH)
			gScores := tensor.Get(T, T)
			for i := 0; i < T; i++ {
				var dot float64
				for j := 0; j < T; j++ {
					dot += float64(gAttn.At(i, j)) * float64(attn.At(i, j))
				}
				for j := 0; j < T; j++ {
					gScores.Set(attn.At(i, j)*(gAttn.At(i, j)-float32(dot)), i, j)
				}
			}
			tensor.Put(gAttn)
			gScores.Scale(scale)
			gTmp := tensor.Get(T, H/a.Heads)
			tensor.MatMulInto(gTmp, gScores, kh)
			headAdd(gQ, gTmp, h, a.Heads)
			tensor.MatMulTransAInto(gTmp, gScores, qh)
			headAdd(gK, gTmp, h, a.Heads)
			tensor.Put(gTmp)
			tensor.Put(gScores)
			headAdd(gV, gVh, h, a.Heads)
			tensor.Put(gVh)
			tensor.Put(qh)
			tensor.Put(kh)
			tensor.Put(vh)
			tensor.Put(gCtxH)
		}
		tensor.Put(gCtx)
		addMatMulTransA(a.GWq, xn, gQ)
		addMatMulTransA(a.GWk, xn, gK)
		addMatMulTransA(a.GWv, xn, gV)
		gx := tensor.FromSlice(gradIn.Data[n*T*H:(n+1)*T*H], T, H)
		tensor.MatMulTransBInto(gx, gQ, a.Wq)
		addMatMulTransB(gx, gK, a.Wk)
		addMatMulTransB(gx, gV, a.Wv)
		tensor.Put(gQ)
		tensor.Put(gK)
		tensor.Put(gV)
	}
	a.discard(c)
	return gradIn
}

// discard implements contextDiscarder.
func (a *MultiHeadAttention) discard(ctx Context) {
	c := ctx.(*mhaCtx)
	for n := range c.q {
		tensor.Put(c.q[n])
		tensor.Put(c.k[n])
		tensor.Put(c.v[n])
		tensor.Put(c.ctxv[n])
		for _, attn := range c.attn[n] {
			tensor.Put(attn)
		}
	}
}

// Params implements Layer.
func (a *MultiHeadAttention) Params() []*tensor.Tensor {
	return []*tensor.Tensor{a.Wq, a.Wk, a.Wv, a.Wo}
}

// Grads implements Layer.
func (a *MultiHeadAttention) Grads() []*tensor.Tensor {
	return []*tensor.Tensor{a.GWq, a.GWk, a.GWv, a.GWo}
}
