package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipedream/internal/tensor"
)

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, "fc", 3, 5)
	y, _ := d.Forward(tensor.New(7, 3), false)
	if y.Dim(0) != 7 || y.Dim(1) != 5 {
		t.Fatalf("Dense output %v", y.Shape)
	}
	if len(d.Params()) != 2 || len(d.Grads()) != 2 {
		t.Fatalf("Dense params/grads wrong")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, "fc", 2, 2)
	d.W.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2))
	d.B.CopyFrom(tensor.FromSlice([]float32{10, 20}, 2))
	y, _ := d.Forward(tensor.FromSlice([]float32{1, 1}, 1, 2), false)
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Fatalf("Dense forward = %v", y.Data)
	}
}

func TestConvOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D(rng, "conv", g, 16)
	y, _ := c.Forward(tensor.New(2, 3, 8, 8), false)
	if y.Dim(0) != 2 || y.Dim(1) != 16 || y.Dim(2) != 8 || y.Dim(3) != 8 {
		t.Fatalf("Conv output %v", y.Shape)
	}
}

func TestConvIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 1, InH: 3, InW: 3, KH: 1, KW: 1, Stride: 1}
	c := NewConv2D(rng, "conv", g, 1)
	c.W.Fill(1)
	c.B.Zero()
	x := tensor.Randn(rng, 1, 1, 1, 3, 3)
	y, _ := c.Forward(x, false)
	if !y.AllClose(x, 1e-6) {
		t.Fatal("1x1 identity conv should reproduce input")
	}
}

func TestLSTMShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(rng, "lstm", 3, 5)
	y, _ := l.Forward(tensor.New(2, 7, 3), false)
	if y.Dim(0) != 2 || y.Dim(1) != 7 || y.Dim(2) != 5 {
		t.Fatalf("LSTM output %v", y.Shape)
	}
}

func TestLSTMHiddenBounded(t *testing.T) {
	// LSTM hidden state is o·tanh(c), so |h| < 1 always.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLSTM(rng, "lstm", 2, 3)
		x := tensor.Randn(rng, 3, 1, 4, 2)
		y, _ := l.Forward(x, false)
		return y.MaxAbs() < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedding(rng, "emb", 4, 3)
	x := tensor.FromSlice([]float32{2, 0}, 1, 2)
	y, _ := e.Forward(x, false)
	for j := 0; j < 3; j++ {
		if y.At(0, 0, j) != e.W.At(2, j) || y.At(0, 1, j) != e.W.At(0, j) {
			t.Fatal("embedding lookup wrong")
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, "drop", 0.5)
	x := tensor.Randn(rng, 1, 10)
	y, _ := d.Forward(x, false)
	if !y.AllClose(x, 0) {
		t.Fatal("dropout must be identity at eval time")
	}
}

func TestDropoutTrainZeroesAndScales(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(rng, "drop", 0.5)
	x := tensor.Ones(10000)
	y, _ := d.Forward(x, true)
	zeros := 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
		default:
			t.Fatalf("dropout output %v, want 0 or 2", v)
		}
	}
	if zeros < 4000 || zeros > 6000 {
		t.Fatalf("dropout zeroed %d of 10000, want ~5000", zeros)
	}
	// Expectation preserved.
	if m := y.Mean(); math.Abs(m-1) > 0.1 {
		t.Fatalf("dropout mean %v, want ~1", m)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := NewFlatten("flat")
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	y, ctx := f.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten output %v", y.Shape)
	}
	back := f.Backward(ctx, y)
	if !back.SameShape(x) {
		t.Fatalf("Flatten backward shape %v", back.Shape)
	}
}

func TestSGDStep(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2}, 2)
	g := tensor.FromSlice([]float32{1, 1}, 2)
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if math.Abs(float64(p.Data[0])-0.9) > 1e-6 || math.Abs(float64(p.Data[1])-1.9) > 1e-6 {
		t.Fatalf("SGD step = %v", p.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := tensor.FromSlice([]float32{0}, 1)
	g := tensor.FromSlice([]float32{1}, 1)
	opt := NewSGD(1, 0.9, 0)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	first := p.Data[0]
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	second := p.Data[0] - first
	// Second step is larger due to momentum: v2 = 0.9*1 + 1 = 1.9.
	if math.Abs(float64(first)+1) > 1e-6 || math.Abs(float64(second)+1.9) > 1e-6 {
		t.Fatalf("momentum steps %v %v", first, second)
	}
}

func TestOptimizersReduceQuadraticLoss(t *testing.T) {
	// Minimize f(w) = sum(w^2) from the same start with each optimizer.
	for _, tc := range []struct {
		name string
		opt  Optimizer
	}{
		{"sgd", NewSGD(0.1, 0, 0)},
		{"sgd-momentum", NewSGD(0.05, 0.9, 0)},
		{"adam", NewAdam(0.1)},
		{"lars", NewLARS(0.05, 0.9, 0, 0.1)},
	} {
		p := tensor.FromSlice([]float32{3, -2, 1}, 3)
		for i := 0; i < 200; i++ {
			g := p.Clone().Scale(2)
			tc.opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
		}
		if p.Norm() > 0.3 {
			t.Fatalf("%s failed to converge, |w| = %v", tc.name, p.Norm())
		}
	}
}

func TestAdamInvariantToGradientScaleSign(t *testing.T) {
	// Adam's first step magnitude is ~lr regardless of gradient scale.
	for _, scale := range []float32{1e-3, 1, 1e3} {
		p := tensor.FromSlice([]float32{0}, 1)
		g := tensor.FromSlice([]float32{scale}, 1)
		opt := NewAdam(0.1)
		opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
		if math.Abs(float64(p.Data[0])+0.1) > 1e-3 {
			t.Fatalf("Adam first step with scale %v = %v, want ~-0.1", scale, p.Data[0])
		}
	}
}

func TestLARSNormalizesLayerScale(t *testing.T) {
	// With LARS, a layer with huge gradients still takes a step
	// proportional to its weight norm.
	pBig := tensor.FromSlice([]float32{1, 0}, 2)
	gBig := tensor.FromSlice([]float32{1e4, 0}, 2)
	opt := NewLARS(1, 0, 0, 0.01)
	opt.Step([]*tensor.Tensor{pBig}, []*tensor.Tensor{gBig})
	// localLR = 1 * 0.01 * 1/1e4 = 1e-6; step = 1e-6 * 1e4 = 0.01.
	if math.Abs(float64(pBig.Data[0])-0.99) > 1e-4 {
		t.Fatalf("LARS step = %v, want 0.99", pBig.Data[0])
	}
}

func TestSnapshotRestoreParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDense(rng, "fc", 3, 3)
	snap := SnapshotParams(d.Params())
	orig := d.W.Clone()
	d.W.Fill(7)
	RestoreParams(d.Params(), snap)
	if !d.W.AllClose(orig, 0) {
		t.Fatal("restore did not recover original params")
	}
	// Snapshot must be independent of live params.
	d.W.Fill(3)
	if snap[0].AllClose(d.W, 0) {
		t.Fatal("snapshot aliases live params")
	}
}

func TestSequentialSliceSharesLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewSequential(
		NewDense(rng, "a", 2, 2),
		NewReLU("b"),
		NewDense(rng, "c", 2, 2),
	)
	s := m.Slice(0, 2)
	if len(s.Layers) != 2 || s.Layers[0] != m.Layers[0] {
		t.Fatal("Slice must share layer values")
	}
}

func TestParamBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(rng, "fc", 10, 20)
	if got := ParamBytes(d.Params()); got != 4*(10*20+20) {
		t.Fatalf("ParamBytes = %d", got)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 2, 5, 0}, 2, 2)
	if a := Accuracy(logits, []int{1, 0}); a != 1 {
		t.Fatalf("Accuracy = %v", a)
	}
	if a := Accuracy(logits, []int{0, 1}); a != 0 {
		t.Fatalf("Accuracy = %v", a)
	}
}

func TestPerplexity(t *testing.T) {
	if p := Perplexity(0); p != 1 {
		t.Fatalf("Perplexity(0) = %v", p)
	}
	if p := Perplexity(math.Log(50)); math.Abs(p-50) > 1e-9 {
		t.Fatalf("Perplexity(ln 50) = %v", p)
	}
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	logits := tensor.New(4, 10)
	loss, _ := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3})
	if math.Abs(loss-math.Log(10)) > 1e-5 {
		t.Fatalf("uniform xent = %v, want ln(10)", loss)
	}
}

// Training an MLP end to end on a separable toy problem must reach high
// accuracy — the substrate-level sanity check everything else rests on.
func TestMLPLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	model := NewSequential(
		NewDense(rng, "fc1", 2, 16),
		NewTanh("t1"),
		NewDense(rng, "fc2", 16, 2),
	)
	opt := NewSGD(0.2, 0.9, 0)
	batch, steps := 32, 150
	for s := 0; s < steps; s++ {
		x := tensor.New(batch, 2)
		labels := make([]int, batch)
		for n := 0; n < batch; n++ {
			x.Data[n*2] = float32(rng.NormFloat64())
			x.Data[n*2+1] = float32(rng.NormFloat64())
			if x.Data[n*2]+x.Data[n*2+1] > 0 {
				labels[n] = 1
			}
		}
		y, ctx := model.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(y, labels)
		model.Backward(ctx, grad)
		opt.Step(model.Params(), model.Grads())
	}
	// Evaluate.
	x := tensor.New(200, 2)
	labels := make([]int, 200)
	for n := 0; n < 200; n++ {
		x.Data[n*2] = float32(rng.NormFloat64())
		x.Data[n*2+1] = float32(rng.NormFloat64())
		if x.Data[n*2]+x.Data[n*2+1] > 0 {
			labels[n] = 1
		}
	}
	y, _ := model.Forward(x, false)
	if acc := Accuracy(y, labels); acc < 0.95 {
		t.Fatalf("MLP accuracy %v, want ≥0.95", acc)
	}
}

// Optimizer state snapshot/restore must make a resumed trajectory exactly
// match an uninterrupted one — the property pipeline checkpointing relies
// on for exact fault recovery.
func TestOptimizerStatefulRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Optimizer
	}{
		{"sgd-momentum", func() Optimizer { return NewSGD(0.1, 0.9, 1e-4) }},
		{"adam", func() Optimizer { return NewAdam(0.05) }},
		{"lars", func() Optimizer { return NewLARS(0.1, 0.9, 1e-4, 0.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grad := func(step int) *tensor.Tensor {
				g := tensor.New(3)
				for i := range g.Data {
					g.Data[i] = float32(step+1) * float32(i+1) * 0.1
				}
				return g
			}
			// Uninterrupted reference: 6 steps.
			pRef := tensor.FromSlice([]float32{1, -1, 0.5}, 3)
			optRef := tc.mk()
			for s := 0; s < 6; s++ {
				optRef.Step([]*tensor.Tensor{pRef}, []*tensor.Tensor{grad(s)})
			}
			// Interrupted: 3 steps, snapshot, new optimizer, restore, 3 more.
			p := tensor.FromSlice([]float32{1, -1, 0.5}, 3)
			opt1 := tc.mk()
			for s := 0; s < 3; s++ {
				opt1.Step([]*tensor.Tensor{p}, []*tensor.Tensor{grad(s)})
			}
			state := opt1.(Stateful).StateSnapshot([]*tensor.Tensor{p})
			opt2 := tc.mk()
			opt2.(Stateful).RestoreState([]*tensor.Tensor{p}, state)
			for s := 3; s < 6; s++ {
				opt2.Step([]*tensor.Tensor{p}, []*tensor.Tensor{grad(s)})
			}
			if !p.AllClose(pRef, 1e-6) {
				t.Fatalf("resumed trajectory diverged: %v vs %v", p.Data, pRef.Data)
			}
		})
	}
}

// StepInto with next ≠ cur leaves the same bits in the parameters and in
// the optimizer's state as Step does in place on a clone, weight decay and
// a learning-rate schedule included, in two forms: the parameter headers
// pointed at a second array, the current values read through views of the
// first, the two arrays swapping roles every step; and the pipeline's,
// where next is bound to the array the gradients are views of, so each
// step writes the new weights over the gradients it reads, and the array
// of the version read becomes the next step's gradient array. Neither form
// writes the version it reads.
func TestStepIntoMatchesStepBitForBit(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Optimizer
	}{
		{"sgd-plain", func() Optimizer { return NewSGD(0.1, 0, 0) }},
		{"sgd", func() Optimizer { return NewSGD(0.1, 0, 1e-2) }},
		{"sgd-momentum", func() Optimizer { return NewSGD(0.1, 0.9, 1e-2) }},
		{"adam", func() Optimizer { return NewAdam(0.05) }},
		{"lars", func() Optimizer { return NewLARS(0.1, 0.9, 1e-2, 0.1) }},
		{"scheduled", func() Optimizer {
			return NewScheduled(NewAdam(0.05), StepDecay{Base: 0.05, Factor: 0.5, Every: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			shapes := [][]int{{5, 3}, {3}, {2, 2, 2}}
			var inPlace, next, over []*tensor.Tensor
			for _, s := range shapes {
				p := tensor.Randn(rng, 1, s...)
				inPlace, next, over = append(inPlace, p), append(next, p.Clone()), append(over, p.Clone())
			}
			arrays := [2][]float32{tensor.Pack(next)}
			arrays[1] = make([]float32, len(arrays[0]))
			cur := tensor.Views(next, arrays[0])
			version := tensor.Pack(over)
			arena := make([]float32, len(version))
			curOver, gradsOver := tensor.Views(over, version), tensor.Views(over, arena)
			optA, optB, optC := tc.mk(), tc.mk(), tc.mk()
			stateOf := func(o Optimizer, params []*tensor.Tensor) [][]*tensor.Tensor {
				if s, ok := o.(*Scheduled); ok {
					o = s.Opt
				}
				return o.(Stateful).StateSnapshot(params)
			}
			unwritten := func(step int, form string, read, before []float32) {
				for i, v := range read {
					if math.Float32bits(v) != math.Float32bits(before[i]) {
						t.Fatalf("step %d, stepping into %s: StepInto wrote element %d of the version it reads", step, form, i)
					}
				}
			}
			for step := 0; step < 5; step++ {
				var grads []*tensor.Tensor
				for _, s := range shapes {
					grads = append(grads, tensor.Randn(rng, 1, s...))
				}
				optA.Step(inPlace, grads)

				tensor.Bind(cur, arrays[step%2])
				tensor.Bind(next, arrays[(step+1)%2])
				before := append([]float32(nil), arrays[step%2]...)
				optB.StepInto(next, cur, grads)
				unwritten(step, "a second array", arrays[step%2], before)

				for i, g := range grads {
					copy(gradsOver[i].Data, g.Data)
				}
				tensor.Bind(over, arena)
				before = append(before[:0], version...)
				optC.StepInto(over, curOver, gradsOver)
				unwritten(step, "the gradients' array", version, before)
				version, arena = arena, version
				tensor.Bind(curOver, version)
				tensor.Bind(gradsOver, arena)

				stateA := stateOf(optA, inPlace)
				for _, f := range []struct {
					name   string
					opt    Optimizer
					params []*tensor.Tensor
				}{{"a second array", optB, next}, {"the gradients' array", optC, over}} {
					stateB := stateOf(f.opt, f.params)
					for i := range inPlace {
						same := func(a, b *tensor.Tensor, what string) {
							for j := range a.Data {
								if math.Float32bits(a.Data[j]) != math.Float32bits(b.Data[j]) {
									t.Fatalf("step %d: %s of parameter %d differs at element %d: %v in place, %v stepped into %s",
										step, what, i, j, a.Data[j], b.Data[j], f.name)
								}
							}
						}
						same(inPlace[i], f.params[i], "value")
						for k := range stateA[i] {
							same(stateA[i][k], stateB[i][k], "optimizer state")
						}
					}
				}
			}
		})
	}
}
