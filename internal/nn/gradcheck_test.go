package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipedream/internal/tensor"
)

// lossOf projects a tensor to a scalar with fixed random coefficients so
// gradient checks exercise every output element.
type projector struct{ coef []float32 }

func newProjector(rng *rand.Rand, size int) *projector {
	c := make([]float32, size)
	for i := range c {
		c[i] = float32(rng.NormFloat64())
	}
	return &projector{coef: c}
}

func (p *projector) loss(t *tensor.Tensor) float64 {
	var s float64
	for i, v := range t.Data {
		s += float64(v) * float64(p.coef[i])
	}
	return s
}

func (p *projector) grad(shape []int) *tensor.Tensor {
	g := tensor.New(shape...)
	copy(g.Data, p.coef)
	return g
}

// checkLayerGradients verifies Backward against central finite differences
// for both the input and every parameter of the layer.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	y, ctx := layer.Forward(x, false)
	proj := newProjector(rng, y.Size())
	gradIn := layer.Backward(ctx, proj.grad(y.Shape))

	const h = 1e-2
	numGrad := func(read func() float32, write func(float32)) float64 {
		orig := read()
		write(orig + h)
		yp, _ := layer.Forward(x, false)
		lp := proj.loss(yp)
		write(orig - h)
		ym, _ := layer.Forward(x, false)
		lm := proj.loss(ym)
		write(orig)
		return (lp - lm) / (2 * h)
	}
	compare := func(what string, analytic float64, numeric float64) {
		scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
		if math.Abs(analytic-numeric)/scale > tol {
			t.Fatalf("%s gradient mismatch in %s: analytic %v numeric %v", what, layer.Name(), analytic, numeric)
		}
	}

	// A sample of input positions.
	for trial := 0; trial < 8 && x.Size() > 0; trial++ {
		i := rng.Intn(x.Size())
		n := numGrad(func() float32 { return x.Data[i] }, func(v float32) { x.Data[i] = v })
		compare("input", float64(gradIn.Data[i]), n)
	}
	// A sample of positions in every parameter tensor.
	for pi, p := range layer.Params() {
		g := layer.Grads()[pi]
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(p.Size())
			n := numGrad(func() float32 { return p.Data[i] }, func(v float32) { p.Data[i] = v })
			compare("param", float64(g.Data[i]), n)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(rng, "fc", 5, 4)
	x := tensor.Randn(rng, 1, 3, 5)
	checkLayerGradients(t, layer, x, 2e-2)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	layer := NewConv2D(rng, "conv", g, 3)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	checkLayerGradients(t, layer, x, 3e-2)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
	layer := NewConv2D(rng, "conv-s2", g, 2)
	x := tensor.Randn(rng, 1, 2, 1, 6, 6)
	checkLayerGradients(t, layer, x, 3e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 1, 4, 6)
	// Push values away from the kink so finite differences are valid.
	x.Apply(func(v float32) float32 {
		if v >= 0 && v < 0.1 {
			return v + 0.2
		}
		if v < 0 && v > -0.1 {
			return v - 0.2
		}
		return v
	})
	checkLayerGradients(t, NewReLU("relu"), x, 2e-2)
}

func TestTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkLayerGradients(t, NewTanh("tanh"), tensor.Randn(rng, 1, 4, 6), 2e-2)
}

func TestSigmoidGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	checkLayerGradients(t, NewSigmoid("sig"), tensor.Randn(rng, 1, 4, 6), 2e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	layer := NewMaxPool2D("pool", g)
	// Spread values so the argmax is stable under the probe step.
	x := tensor.New(2, 2, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i%13) + float32(rng.NormFloat64())*0.01
	}
	checkLayerGradients(t, layer, x, 2e-2)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewLSTM(rng, "lstm", 3, 4)
	x := tensor.Randn(rng, 1, 2, 3, 3) // [B=2, T=3, In=3]
	checkLayerGradients(t, layer, x, 3e-2)
}

func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layer := NewEmbedding(rng, "emb", 7, 4)
	x := tensor.FromSlice([]float32{0, 3, 6, 2}, 2, 2)
	y, ctx := layer.Forward(x, false)
	proj := newProjector(rng, y.Size())
	layer.Backward(ctx, proj.grad(y.Shape))
	// Finite differences on the embedding table.
	const h = 1e-2
	w, gw := layer.W, layer.GW
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(w.Size())
		orig := w.Data[i]
		w.Data[i] = orig + h
		yp, _ := layer.Forward(x, false)
		lp := proj.loss(yp)
		w.Data[i] = orig - h
		ym, _ := layer.Forward(x, false)
		lm := proj.loss(ym)
		w.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(gw.Data[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("embedding grad mismatch at %d: analytic %v numeric %v", i, gw.Data[i], num)
		}
	}
}

func TestLastStepGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	checkLayerGradients(t, NewLastStep("last"), tensor.Randn(rng, 1, 2, 3, 4), 2e-2)
}

func TestFlattenTimeGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkLayerGradients(t, NewFlattenTime("ft"), tensor.Randn(rng, 1, 2, 3, 4), 2e-2)
}

func TestSoftmaxCrossEntropyGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := tensor.Randn(rng, 1, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-3
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(logits.Size())
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("xent grad mismatch at %d: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestMSEGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := tensor.Randn(rng, 1, 2, 3)
	target := tensor.Randn(rng, 1, 2, 3)
	_, grad := MSE(pred, target)
	const h = 1e-3
	for i := 0; i < pred.Size(); i++ {
		orig := pred.Data[i]
		pred.Data[i] = orig + h
		lp, _ := MSE(pred, target)
		pred.Data[i] = orig - h
		lm, _ := MSE(pred, target)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("mse grad mismatch at %d: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	model := NewSequential(
		NewDense(rng, "fc1", 4, 6),
		NewTanh("t1"),
		NewDense(rng, "fc2", 6, 3),
	)
	x := tensor.Randn(rng, 1, 2, 4)
	y, ctx := model.Forward(x, false)
	proj := newProjector(rng, y.Size())
	gradIn := model.Backward(ctx, proj.grad(y.Shape))

	const h = 1e-2
	for trial := 0; trial < 8; trial++ {
		i := rng.Intn(x.Size())
		orig := x.Data[i]
		x.Data[i] = orig + h
		yp, _ := model.Forward(x, false)
		lp := proj.loss(yp)
		x.Data[i] = orig - h
		ym, _ := model.Forward(x, false)
		lm := proj.loss(ym)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(gradIn.Data[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("sequential input grad mismatch: analytic %v numeric %v", gradIn.Data[i], num)
		}
	}
}
