package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"pipedream/internal/tensor"
)

// ownershipStacks are layer stacks that between them put a view or an
// identity layer first, in the middle and last, nest a Sequential in a
// Residual (with real and with identity-only inner stacks), and cover
// every layer whose context holds pooled tensors. Each returns the stack
// built from seed and an input for it.
var ownershipStacks = map[string]func(rng *rand.Rand) (*Sequential, *tensor.Tensor){
	"dense-tanh-dense": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewDense(rng, "a", 6, 8), NewTanh("t"), NewDense(rng, "b", 8, 3)), tensor.Randn(rng, 1, 4, 6)
	},
	"ends-in-tanh": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewDense(rng, "a", 6, 8), NewReLU("r"), NewDense(rng, "b", 8, 8), NewTanh("t")), tensor.Randn(rng, 1, 4, 6)
	},
	"view-first": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewFlatten("f"), NewDense(rng, "a", 6, 5), NewSigmoid("s")), tensor.Randn(rng, 1, 4, 2, 3)
	},
	"view-middle": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewLSTM(rng, "l", 3, 4), NewFlattenTime("ft"), NewDense(rng, "a", 4, 2), NewReLU("r")), tensor.Randn(rng, 1, 2, 5, 3)
	},
	"view-last": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewGRU(rng, "g", 3, 4), NewTanh("t"), NewFlattenTime("ft")), tensor.Randn(rng, 1, 2, 5, 3)
	},
	"views-only": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewFlatten("f"), NewDropout(rng, "identity", 0)), tensor.Randn(rng, 1, 4, 2, 3)
	},
	"flatten-only": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewFlatten("f")), tensor.Randn(rng, 1, 4, 2, 3)
	},
	"identity-middle": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewDense(rng, "a", 6, 8), NewDropout(rng, "identity", 0), NewFlatten("f"), NewReLU("r"), NewDropout(rng, "d", 0.5), NewDense(rng, "b", 8, 3)), tensor.Randn(rng, 1, 4, 6)
	},
	"residual": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		inner := NewSequential(NewDense(rng, "i1", 6, 6), NewTanh("it"))
		identity := NewSequential(NewDropout(rng, "identity", 0))
		return NewSequential(NewLayerNorm("ln", 6), NewResidual("res", inner), NewResidual("res-id", identity), NewDense(rng, "b", 6, 3)), tensor.Randn(rng, 1, 4, 6)
	},
	"conv": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		pool := tensor.ConvGeom{InC: 3, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
		avg := tensor.ConvGeom{InC: 3, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1}
		return NewSequential(NewConv2D(rng, "c", g, 3), NewReLU("r"), NewMaxPool2D("mp", pool), NewAvgPool2D("ap", avg), NewFlatten("f"), NewDense(rng, "d", 3, 2)), tensor.Randn(rng, 1, 2, 2, 6, 6)
	},
	"conv-relu-conv": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		g1 := tensor.ConvGeom{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1}
		g2 := tensor.ConvGeom{InC: 5, InH: 5, InW: 7, KH: 2, KW: 3, Stride: 2}
		return NewSequential(NewConv2D(rng, "c1", g1, 5), NewReLU("r"), NewConv2D(rng, "c2", g2, 3)), tensor.Randn(rng, 1, 3, 2, 5, 7)
	},
	"attention": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		ids := tensor.New(2, 5)
		for i := range ids.Data {
			ids.Data[i] = float32(rng.Intn(7))
		}
		return NewSequential(NewEmbedding(rng, "e", 7, 4), NewSelfAttention(rng, "sa", 4), NewMultiHeadAttention(rng, "mha", 4, 2), NewLastStep("ls"), NewDense(rng, "d", 4, 3)), ids
	},
	"lstm-laststep": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewLSTM(rng, "lstm", 6, 10), NewLastStep("last"), NewDense(rng, "fc", 10, 3)), tensor.RandUniform(rng, -1, 1, 4, 7, 6)
	},
	"embedding-lstm": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		ids := tensor.New(3, 5)
		for i := range ids.Data {
			ids.Data[i] = float32(rng.Intn(9))
		}
		return NewSequential(NewEmbedding(rng, "emb", 9, 6), NewLSTM(rng, "lstm", 6, 4), NewLastStep("last"), NewDense(rng, "fc", 4, 3)), ids
	},
	"gru-flattentime": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		return NewSequential(NewGRU(rng, "gru", 6, 9), NewFlattenTime("ft"), NewDense(rng, "fc", 9, 2)), tensor.RandUniform(rng, -1, 1, 3, 5, 6)
	},
	"embedding-attention": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		ids := tensor.New(3, 6)
		for i := range ids.Data {
			ids.Data[i] = float32(rng.Intn(13))
		}
		return NewSequential(NewEmbedding(rng, "emb", 13, 8), NewSelfAttention(rng, "sa", 8), NewFlattenTime("ft"), NewDense(rng, "fc", 8, 4)), ids
	},
	"mha-residual-norm": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		ids := tensor.New(2, 4)
		for i := range ids.Data {
			ids.Data[i] = float32(rng.Intn(11))
		}
		inner := NewSequential(NewDense(rng, "rfc1", 12, 12), NewTanh("rt"))
		return NewSequential(NewEmbedding(rng, "emb", 11, 12), NewMultiHeadAttention(rng, "mha", 12, 3), NewFlattenTime("ft"),
			NewResidual("res", inner), NewLayerNorm("ln", 12)), ids
	},
	"conv-pool-norm": func(rng *rand.Rand) (*Sequential, *tensor.Tensor) {
		g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		pool := tensor.ConvGeom{InC: 4, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
		return NewSequential(NewConv2D(rng, "c1", g, 4), NewReLU("r1"), NewMaxPool2D("p1", pool), NewFlatten("f1"),
			NewLayerNorm("ln1", 4*3*3), NewDense(rng, "fc1", 4*3*3, 5)), tensor.RandUniform(rng, -1, 1, 3, 2, 6, 6)
	},
}

func bitsOf(ts ...*tensor.Tensor) []uint32 {
	var out []uint32
	for _, t := range ts {
		for _, v := range t.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

// heldAfterForward lists, per ownership stack, the layers whose outputs a
// training forward's context still holds — those a layer context reads and
// that are not a view of another — and whether a context reads the input.
// An output no context reads is back in the pool when Forward returns, and
// an elementwise layer writes over an output no context reads: Dense→Tanh
// keeps one array, the Dense output the Tanh wrote over (its own and the
// next Dense's context), a Dense→ReLU→Dropout chain one, ReLU keeps
// only its mask, Conv→ReLU→MaxPool holds none of the three, a Flatten-only
// stack nothing at all, and an LSTM (an opaque context) keeps its input
// whatever produced it.
var heldAfterForward = map[string]struct {
	outputs    []int
	readsInput bool
}{
	"dense-tanh-dense": {[]int{0}, true}, "ends-in-tanh": {[]int{0}, true}, "view-first": {nil, true},
	"view-middle": {[]int{0}, true}, "view-last": {nil, true}, "views-only": {nil, false},
	"flatten-only": {nil, false}, "identity-middle": {[]int{0}, true}, "residual": {[]int{0, 1, 2}, false},
	"conv": {[]int{3}, true}, "conv-relu-conv": {[]int{0}, true}, "attention": {[]int{0, 1, 3}, true},
	"lstm-laststep": {[]int{1}, true}, "embedding-lstm": {[]int{0, 2}, true}, "gru-flattentime": {[]int{0}, true},
	"embedding-attention": {[]int{0, 1}, true}, "mha-residual-norm": {[]int{0, 1}, true}, "conv-pool-norm": {[]int{4}, true},
}

func sameBits(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %#08x, want %#08x", what, i, got[i], want[i])
		}
	}
}

// A Sequential's forward and backward, which release every tensor the
// Sequential owns, give bit for bit what the same layers give when called
// one by one with nothing ever released — the package's tests run with the
// use-after-release detector on, so a tensor released while a context
// still reads it, or released twice through a view, fails here — and,
// with the caller releasing what is the caller's, a warmed-up step takes
// nothing from the pool that the previous step did not put back. The same
// holds for a training forward that is discarded instead, and for the
// inference call, Forward(x, false) then Discard. After a training
// forward the context holds exactly the outputs heldAfterForward lists:
// every other one was put back before Forward returned.
func TestSequentialReleasesEachTensorOnce(t *testing.T) {
	// One P, so every Put of a step sits where the next step's Gets look;
	// no collection, which empties sync.Pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, build := range ownershipStacks {
		t.Run(name, func(t *testing.T) {
			ref, x := build(rand.New(rand.NewSource(5)))
			seq, _ := build(rand.New(rand.NewSource(5)))

			// Reference: layer by layer, every tensor left to the collector.
			ctxs := make([]Context, len(ref.Layers))
			act, inferAct := x, x
			for i, l := range ref.Layers {
				act, ctxs[i] = l.Forward(act, true)
				inferAct, _ = l.Forward(inferAct, false)
			}
			gradOut := tensor.Randn(rand.New(rand.NewSource(6)), 1, act.Shape...)
			grad := gradOut
			for i := len(ref.Layers) - 1; i >= 0; i-- {
				grad = ref.Layers[i].Backward(ctxs[i], grad)
			}
			wantY, wantGrad, wantParamGrads := bitsOf(act), bitsOf(grad), bitsOf(ref.Grads()...)
			wantInferY := bitsOf(inferAct)

			step := func(mode string) {
				y, ctx := seq.Forward(x, mode != "infer")
				switch mode {
				case "backward":
					want := heldAfterForward[name]
					var held []int
					for i, o := range ctx.owned {
						if o != nil {
							held = append(held, i)
						}
					}
					if fmt.Sprint(held) != fmt.Sprint(want.outputs) || ctx.ReadsInput() != want.readsInput {
						t.Fatalf("after Forward the context holds outputs %v and ReadsInput is %v, want %v and %v", held, ctx.ReadsInput(), want.outputs, want.readsInput)
					}
					sameBits(t, "output", bitsOf(y), wantY)
					g := seq.Backward(ctx, gradOut)
					sameBits(t, "input gradient", bitsOf(g), wantGrad)
					sameBits(t, "parameter gradients", bitsOf(seq.Grads()...), wantParamGrads)
					if !tensor.SharesStorage(g, gradOut) {
						tensor.Put(g)
					}
				case "discard":
					sameBits(t, "output", bitsOf(y), wantY)
					seq.Discard(ctx)
				case "infer":
					seq.Discard(ctx)
					sameBits(t, "inference output", bitsOf(y), wantInferY)
				}
				if !tensor.SharesStorage(y, x) {
					tensor.Put(y)
				}
			}
			// The dropout mask of "identity-middle" is drawn per forward:
			// give every step the reference's draw.
			reseed := func() {
				fresh, _ := build(rand.New(rand.NewSource(5)))
				for i, l := range fresh.Layers {
					if d, ok := l.(*Dropout); ok {
						seq.Layers[i].(*Dropout).rng = d.rng
					}
				}
			}
			for _, mode := range []string{"backward", "discard", "infer"} {
				for i := 0; i < 2; i++ { // fill the pool's size classes
					reseed()
					step(mode)
				}
				_, misses0, _ := tensor.PoolCounters()
				reseed()
				step(mode)
				_, misses1, _ := tensor.PoolCounters()
				if misses1 != misses0 && !raceEnabled {
					t.Errorf("%s: a warmed-up step missed the pool %d times: something it takes is never put back", mode, misses1-misses0)
				}
			}
		})
	}
}

// Fleet replicas share one model's layers: the inference call is safe from
// several goroutines at once and each gets the single-goroutine output.
// Run under -race.
func TestInferenceConcurrent(t *testing.T) {
	for name, build := range ownershipStacks {
		model, x := build(rand.New(rand.NewSource(5)))
		ref, _ := model.Forward(x, false)
		want := bitsOf(ref)
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			go func() {
				for iter := 0; iter < 20; iter++ {
					y, ctx := model.Forward(x, false)
					model.Discard(ctx)
					got := bitsOf(y)
					if !tensor.SharesStorage(y, x) {
						tensor.Put(y)
					}
					for i := range want {
						if got[i] != want[i] {
							errs <- fmt.Sprintf("%s: element %d is %#08x, want %#08x", name, i, got[i], want[i])
							return
						}
					}
				}
				errs <- ""
			}()
		}
		for g := 0; g < 8; g++ {
			if msg := <-errs; msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// ReadsOutput is true exactly when a layer context is the final output or
// a tensor the final output is a view of.
func TestSeqContextReadsOutput(t *testing.T) {
	want := map[string]bool{
		"dense-tanh-dense": false, "ends-in-tanh": true, "view-first": true, "view-middle": false,
		"view-last": true, "views-only": false, "flatten-only": false, "identity-middle": false, "residual": false,
		"conv": false, "conv-relu-conv": false, "attention": false, "lstm-laststep": false, "embedding-lstm": false,
		"gru-flattentime": false, "embedding-attention": false, "mha-residual-norm": false, "conv-pool-norm": false,
	}
	for name, build := range ownershipStacks {
		seq, x := build(rand.New(rand.NewSource(5)))
		_, ctx := seq.Forward(x, true)
		if got := ctx.ReadsOutput(); got != want[name] {
			t.Errorf("%s: ReadsOutput() = %v, want %v", name, got, want[name])
		}
	}
}

// HeldBytes counts every array a training forward's context keeps once:
// Dense→Tanh→Dense holds its input (the first Dense's context) and the Tanh
// output (the Tanh's and the second Dense's); the conv stack its input, the
// ReLU's 216-bit mask in 7 elements and the pooled [2,3,1,1] output the
// Dense reads through a Flatten view. A caller's tensor passed in extra is
// counted unless the context holds its array already.
func TestSeqContextHeldBytes(t *testing.T) {
	for _, c := range []struct {
		stack       string
		held, extra int64
	}{
		{"dense-tanh-dense", 4*6*4 + 4*8*4, 4 * 3 * 4},
		{"conv", 2*2*6*6*4 + 7*4 + 2*3*4, 2 * 2 * 4},
	} {
		seq, x := ownershipStacks[c.stack](rand.New(rand.NewSource(5)))
		y, ctx := seq.Forward(x, true)
		if got := ctx.HeldBytes(); got != c.held {
			t.Errorf("%s: HeldBytes() = %d, want %d", c.stack, got, c.held)
		}
		if got := ctx.HeldBytes(x, y, nil); got != c.held+c.extra {
			t.Errorf("%s: HeldBytes(input, output, nil) = %d, want %d", c.stack, got, c.held+c.extra)
		}
		seq.Discard(ctx)
	}
}

// randomChain draws a chain of one to seven layers over [4, 6]
// activations from Dense, ReLU, Tanh, Sigmoid, Dropout (the identity or
// not), Flatten (a view) and LayerNorm, with an input and a gradOut; the
// same seed draws the same chain, weights and dropout streams.
func randomChain(seed int64) (seq *Sequential, x, gradOut *tensor.Tensor) {
	const rows, width = 4, 6
	rng := rand.New(rand.NewSource(seed))
	layers := make([]Layer, 1+rng.Intn(7))
	for i := range layers {
		name := fmt.Sprint(i)
		switch rng.Intn(7) {
		case 0:
			layers[i] = NewDense(rng, name, width, width)
		case 1:
			layers[i] = NewReLU(name)
		case 2:
			layers[i] = NewTanh(name)
		case 3:
			layers[i] = NewSigmoid(name)
		case 4:
			layers[i] = NewDropout(rng, name, float64(rng.Intn(2))/2)
		case 5:
			layers[i] = NewFlatten(name)
		case 6:
			layers[i] = NewLayerNorm(name, width)
		}
	}
	return NewSequential(layers...), tensor.Randn(rng, 1, rows, width), tensor.Randn(rng, 1, rows, width)
}

// pooledCopy is a copy of t from the pool, for handing over.
func pooledCopy(t *tensor.Tensor) *tensor.Tensor {
	c := tensor.GetRaw(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// The ownership rule on random chains. The borrowing entry points —
// Forward, Backward, Forward(x, false) then Discard — leave the caller's x
// and gradOut as they were; the handing-over ones — ForwardOver and
// BackwardWithHook — may write over them and give the same bits: output,
// input gradient and parameter gradients all equal the layer-by-layer
// reference's. With the detector on (a second release panics, an early one
// poisons a result) the pool balance is back to zero after each call
// sequence once the caller released its own, each array once.
func TestRandomChainsKeepTheOwnershipRule(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		ref, x, gradOut := randomChain(seed)
		ctxs := make([]Context, len(ref.Layers))
		act, inferAct := x, x
		for i, l := range ref.Layers {
			act, ctxs[i] = l.Forward(act, true)
			inferAct, _ = l.Forward(inferAct, false)
		}
		grad := gradOut
		for i := len(ref.Layers) - 1; i >= 0; i-- {
			grad = ref.Layers[i].Backward(ctxs[i], grad)
		}
		wantY, wantInferY, wantGrad, wantParams := bitsOf(act), bitsOf(inferAct), bitsOf(grad), bitsOf(ref.Grads()...)
		wantX, wantGradOut := bitsOf(x), bitsOf(gradOut)
		what := func(s string) string { return fmt.Sprintf("seed %d %v: %s", seed, ref.Layers, s) }
		balanced := func(run string, o0 int64) {
			if held := outstanding() - o0; held != 0 {
				t.Fatalf("%s: %d pooled tensors outstanding, want 0", what(run), held)
			}
		}

		seq, _, _ := randomChain(seed)
		o0 := outstanding()
		y, ctx := seq.Forward(x, true)
		sameBits(t, what("borrowed output"), bitsOf(y), wantY)
		g := seq.Backward(ctx, gradOut)
		sameBits(t, what("borrowed input gradient"), bitsOf(g), wantGrad)
		sameBits(t, what("borrowed parameter gradients"), bitsOf(seq.Grads()...), wantParams)
		sameBits(t, what("x after Forward and Backward"), bitsOf(x), wantX)
		sameBits(t, what("gradOut after Backward"), bitsOf(gradOut), wantGradOut)
		if !tensor.SharesStorage(y, x) {
			tensor.Put(y)
		}
		if !tensor.SharesStorage(g, gradOut) {
			tensor.Put(g)
		}
		balanced("borrowed", o0)

		y, ctx = seq.Forward(x, false)
		seq.Discard(ctx)
		sameBits(t, what("inference output"), bitsOf(y), wantInferY)
		sameBits(t, what("x after inference"), bitsOf(x), wantX)
		if !tensor.SharesStorage(y, x) {
			tensor.Put(y)
		}
		balanced("inference", o0)

		seq, _, _ = randomChain(seed)
		xo, gOver := pooledCopy(x), pooledCopy(gradOut)
		y, ctx = seq.ForwardOver(xo, true)
		sameBits(t, what("handed-over output"), bitsOf(y), wantY)
		var gradIn *tensor.Tensor
		seq.BackwardWithHook(ctx, gOver, func(g *tensor.Tensor) { gradIn = g }, nil)
		sameBits(t, what("handed-over input gradient"), bitsOf(gradIn), wantGrad)
		sameBits(t, what("handed-over parameter gradients"), bitsOf(seq.Grads()...), wantParams)
		for _, own := range []struct{ t, of *tensor.Tensor }{{y, xo}, {xo, nil}, {gradIn, gOver}, {gOver, nil}} {
			if !tensor.SharesStorage(own.t, own.of) {
				tensor.Put(own.t)
			}
		}
		balanced("handed over", o0)

		seq, _, _ = randomChain(seed)
		xo = pooledCopy(x)
		y, ctx = seq.ForwardOver(xo, false)
		seq.Discard(ctx)
		sameBits(t, what("handed-over inference output"), bitsOf(y), wantInferY)
		if !tensor.SharesStorage(y, xo) {
			tensor.Put(y)
		}
		tensor.Put(xo)
		balanced("handed-over inference", o0)
	}
}

// outstanding is how many pooled tensors are taken and not yet put back.
func outstanding() int64 {
	hits, misses, puts := tensor.PoolCounters()
	return hits + misses - puts
}
