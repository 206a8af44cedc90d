package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipedream/internal/tensor"
)

func TestLayerNormNormalizes(t *testing.T) {
	l := NewLayerNorm("ln", 8)
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 3, 4, 8)
	x.AddScaled(1, tensor.Full(5, 4, 8)) // shift away from zero
	y, _ := l.Forward(x, true)
	for n := 0; n < 4; n++ {
		row := y.Data[n*8 : (n+1)*8]
		var mean, varSum float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= 8
		for _, v := range row {
			d := float64(v) - mean
			varSum += d * d
		}
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v, want ~0", n, mean)
		}
		if sd := math.Sqrt(varSum / 8); math.Abs(sd-1) > 1e-3 {
			t.Fatalf("row %d stddev %v, want ~1", n, sd)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLayerNorm("ln", 6)
	// Non-trivial gain/bias so parameter gradients are exercised.
	l.Gain.CopyFrom(tensor.RandUniform(rng, 0.5, 1.5, 6))
	l.B.CopyFrom(tensor.Randn(rng, 0.3, 6))
	x := tensor.Randn(rng, 1, 3, 6)
	checkLayerGradients(t, l, x, 3e-2)
}

func TestAvgPool2DKnown(t *testing.T) {
	in := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	layer := NewAvgPool2D("avg", g)
	y, _ := layer.Forward(in, false)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("avgpool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestAvgPool2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	checkLayerGradients(t, NewAvgPool2D("avg", g), tensor.Randn(rng, 1, 2, 2, 4, 4), 2e-2)
}

func TestResidualIdentitySkip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inner := NewSequential(NewDense(rng, "fc", 4, 4))
	inner.Layers[0].(*Dense).W.Zero()
	inner.Layers[0].(*Dense).B.Zero()
	r := NewResidual("res", inner)
	x := tensor.Randn(rng, 1, 3, 4)
	y, _ := r.Forward(x, false)
	if !y.AllClose(x, 1e-6) {
		t.Fatal("residual with zero inner must be identity")
	}
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inner := NewSequential(NewDense(rng, "fc", 4, 4), NewTanh("t"))
	checkLayerGradients(t, NewResidual("res", inner), tensor.Randn(rng, 1, 3, 4), 2e-2)
}

func TestResidualPanicsOnShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inner := NewSequential(NewDense(rng, "fc", 4, 5))
	r := NewResidual("res", inner)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	r.Forward(tensor.New(2, 4), false)
}

func TestGRUShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGRU(rng, "gru", 3, 5)
	y, _ := g.Forward(tensor.New(2, 7, 3), false)
	if y.Dim(0) != 2 || y.Dim(1) != 7 || y.Dim(2) != 5 {
		t.Fatalf("GRU output %v", y.Shape)
	}
	if len(g.Params()) != 3 {
		t.Fatalf("GRU params %d", len(g.Params()))
	}
}

func TestGRUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewGRU(rng, "gru", 3, 4)
	x := tensor.Randn(rng, 1, 2, 3, 3)
	checkLayerGradients(t, layer, x, 3e-2)
}

func TestGRUHiddenBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewGRU(rng, "gru", 2, 3)
	x := tensor.Randn(rng, 3, 4, 6, 2)
	y, _ := g.Forward(x, false)
	// h is a convex combination of tanh values: |h| < 1.
	if y.MaxAbs() >= 1 {
		t.Fatalf("GRU hidden |h| = %v, want < 1", y.MaxAbs())
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Base: 1.0, Factor: 0.1, Every: 10}
	if s.LRAt(0) != 1.0 || s.LRAt(9) != 1.0 {
		t.Fatal("no decay before the first boundary")
	}
	if math.Abs(s.LRAt(10)-0.1) > 1e-12 || math.Abs(s.LRAt(25)-0.01) > 1e-12 {
		t.Fatalf("decay wrong: %v %v", s.LRAt(10), s.LRAt(25))
	}
}

func TestWarmupSchedule(t *testing.T) {
	w := Warmup{Base: 1.0, Steps: 4, After: ConstantLR(1.0)}
	want := []float64{0.25, 0.5, 0.75, 1.0, 1.0, 1.0}
	for tt, wv := range want {
		if got := w.LRAt(tt); math.Abs(got-wv) > 1e-12 {
			t.Fatalf("warmup LRAt(%d) = %v, want %v", tt, got, wv)
		}
	}
}

func TestScheduledOptimizerAppliesSchedule(t *testing.T) {
	opt := NewScheduled(NewSGD(99, 0, 0), StepDecay{Base: 1, Factor: 0.5, Every: 1})
	p := tensor.FromSlice([]float32{0}, 1)
	g := tensor.FromSlice([]float32{1}, 1)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}) // lr 1
	if math.Abs(float64(p.Data[0])+1) > 1e-6 {
		t.Fatalf("step 0 applied lr %v", -p.Data[0])
	}
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}) // lr 0.5
	if math.Abs(float64(p.Data[0])+1.5) > 1e-6 {
		t.Fatalf("step 1 total %v, want -1.5", p.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	g := tensor.FromSlice([]float32{3, 4}, 2) // norm 5
	pre := ClipGradNorm([]*tensor.Tensor{g}, 1.0)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	if n := g.Norm(); math.Abs(n-1) > 1e-6 {
		t.Fatalf("post-clip norm %v, want 1", n)
	}
	// Under the bound: untouched.
	h := tensor.FromSlice([]float32{0.3, 0.4}, 2)
	ClipGradNorm([]*tensor.Tensor{h}, 1.0)
	if h.Data[0] != 0.3 {
		t.Fatal("clip must not touch small gradients")
	}
}

// A GRU model must learn the sequence-copy task, exercising full BPTT.
func TestGRULearnsCopyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	model := NewSequential(
		NewEmbedding(rng, "emb", 6, 8),
		NewGRU(rng, "gru", 8, 16),
		NewFlattenTime("ft"),
		NewDense(rng, "dec", 16, 6),
	)
	opt := NewAdam(0.02)
	for step := 0; step < 150; step++ {
		x := tensor.New(8, 4)
		labels := make([]int, 32)
		for n := 0; n < 8; n++ {
			for tt := 0; tt < 4; tt++ {
				tok := rng.Intn(6)
				x.Set(float32(tok), n, tt)
				labels[n*4+tt] = tok
			}
		}
		y, ctx := model.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(y, labels)
		model.Backward(ctx, grad)
		opt.Step(model.Params(), model.Grads())
	}
	// Evaluate.
	x := tensor.New(16, 4)
	labels := make([]int, 64)
	for n := 0; n < 16; n++ {
		for tt := 0; tt < 4; tt++ {
			tok := rng.Intn(6)
			x.Set(float32(tok), n, tt)
			labels[n*4+tt] = tok
		}
	}
	y, _ := model.Forward(x, false)
	if acc := Accuracy(y, labels); acc < 0.9 {
		t.Fatalf("GRU copy accuracy %v, want ≥0.9", acc)
	}
}

func TestSelfAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := NewSelfAttention(rng, "attn", 6)
	y, _ := a.Forward(tensor.New(2, 5, 6), false)
	if y.Dim(0) != 2 || y.Dim(1) != 5 || y.Dim(2) != 6 {
		t.Fatalf("attention output %v", y.Shape)
	}
	if len(a.Params()) != 4 || len(a.Grads()) != 4 {
		t.Fatal("attention params/grads wrong")
	}
}

func TestSelfAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	layer := NewSelfAttention(rng, "attn", 4)
	x := tensor.Randn(rng, 1, 2, 3, 4)
	checkLayerGradients(t, layer, x, 3e-2)
}

func TestSelfAttentionRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	scores := tensor.Randn(rng, 2, 4, 4)
	attn := tensor.New(4, 4)
	softmaxRowsInto(attn, scores)
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(attn.At(i, j))
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

// A small transformer block (attention + residual FFN) must learn the
// sequence-copy task through normal training — attention end to end.
func TestAttentionLearnsCopyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const vocab, T, H = 6, 4, 16
	model := NewSequential(
		NewEmbedding(rng, "emb", vocab, H),
		NewSelfAttention(rng, "attn", H),
		NewFlattenTime("ft"),
		NewDense(rng, "dec", H, vocab),
	)
	opt := NewAdam(0.02)
	for step := 0; step < 200; step++ {
		x := tensor.New(8, T)
		labels := make([]int, 8*T)
		for n := 0; n < 8; n++ {
			for tt := 0; tt < T; tt++ {
				tok := rng.Intn(vocab)
				x.Set(float32(tok), n, tt)
				labels[n*T+tt] = tok
			}
		}
		y, ctx := model.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(y, labels)
		model.Backward(ctx, grad)
		opt.Step(model.Params(), model.Grads())
	}
	x := tensor.New(16, T)
	labels := make([]int, 16*T)
	for n := 0; n < 16; n++ {
		for tt := 0; tt < T; tt++ {
			tok := rng.Intn(vocab)
			x.Set(float32(tok), n, tt)
			labels[n*T+tt] = tok
		}
	}
	y, _ := model.Forward(x, false)
	if acc := Accuracy(y, labels); acc < 0.9 {
		t.Fatalf("attention copy accuracy %v, want ≥0.9", acc)
	}
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	layer := NewMultiHeadAttention(rng, "mha", 6, 2)
	x := tensor.Randn(rng, 1, 2, 3, 6)
	checkLayerGradients(t, layer, x, 3e-2)
}

func TestMultiHeadAttentionOneHeadMatchesSingle(t *testing.T) {
	// With one head, multi-head attention is exactly SelfAttention when
	// weights agree.
	rng := rand.New(rand.NewSource(25))
	single := NewSelfAttention(rng, "s", 6)
	multi := NewMultiHeadAttention(rand.New(rand.NewSource(99)), "m", 6, 1)
	multi.Wq.CopyFrom(single.Wq)
	multi.Wk.CopyFrom(single.Wk)
	multi.Wv.CopyFrom(single.Wv)
	multi.Wo.CopyFrom(single.Wo)
	x := tensor.Randn(rng, 1, 2, 4, 6)
	ys, _ := single.Forward(x, false)
	ym, _ := multi.Forward(x, false)
	if !ys.AllClose(ym, 1e-5) {
		t.Fatal("1-head MHA must equal single-head attention")
	}
}

func TestMultiHeadAttentionPanicsOnBadHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention(rand.New(rand.NewSource(1)), "bad", 6, 4)
}
