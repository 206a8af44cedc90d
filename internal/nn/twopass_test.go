package nn_test

import (
	"math/rand"
	"testing"

	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// The two-pass backward (Sequential.BackwardWithHook: input gradients last
// layer to first, then parameter gradients) is the layer-by-layer backward
// reordered, for every ownership stack and every modelzoo stand-in, with
// the input gradient asked for and not: the input gradient when asked and
// every parameter gradient are bit-equal to calling each layer's Backward
// in turn; every pooled tensor a forward and backward take is back in the
// pool (the detector is on, so one released early or twice fails too); and
// a backward that asks for no input gradient — the input stage's — takes
// exactly the pooled tensors of the full one minus what the input half of
// the lowest layer with parameters and the whole backward of every layer
// below it take: none of that work runs.
func TestTwoPassBackwardMatchesLayerByLayer(t *testing.T) {
	builds := map[string]func() (*nn.Sequential, *tensor.Tensor){}
	for name, build := range nn.OwnershipStacks {
		builds[name] = func() (*nn.Sequential, *tensor.Tensor) { return build(rand.New(rand.NewSource(5))) }
	}
	for _, s := range modelzoo.StandIns(3) {
		builds["modelzoo/"+s.Name] = func() (*nn.Sequential, *tensor.Tensor) { return s.Factory(), s.Train.Batch(0).X }
	}
	gets := func() int64 {
		hits, misses, _ := tensor.PoolCounters()
		return hits + misses
	}
	outstanding := func() int64 {
		hits, misses, puts := tensor.PoolCounters()
		return hits + misses - puts
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			// Reference: each layer's Backward in turn, nothing released. A
			// fresh model per run draws the same dropout masks.
			ref, x := build()
			n := len(ref.Layers)
			low := 0
			for low < n && len(ref.Layers[low].Params()) == 0 {
				low++
			}
			ctxs := make([]nn.Context, n)
			act := x
			for i, l := range ref.Layers {
				act, ctxs[i] = l.Forward(act, true)
			}
			gradOut := tensor.Randn(rand.New(rand.NewSource(6)), 1, act.Shape...)
			var skipped int64 // what the work an input stage skips takes from the pool
			grad := gradOut
			for i := n - 1; i >= 0; i-- {
				g0 := gets()
				if i == low {
					nn.InputHalf(ref.Layers[i], ctxs[i], grad)
					skipped += gets() - g0
				}
				g0 = gets()
				grad = ref.Layers[i].Backward(ctxs[i], grad)
				if i < low {
					skipped += gets() - g0
				}
			}
			wantIn, wantGrads := nn.BitsOf(grad), nn.BitsOf(ref.Grads()...)

			taken := map[bool]int64{}
			for _, asked := range []bool{true, false} {
				seq, x := build()
				o0, g0 := outstanding(), gets()
				y, ctx := seq.Forward(x, true)
				var gradIn *tensor.Tensor
				var up func(*tensor.Tensor)
				if asked {
					up = func(g *tensor.Tensor) { gradIn = g }
				}
				handed := gradOut.Clone() // BackwardWithHook may write over it
				seq.BackwardWithHook(ctx, handed, up, nil)
				if asked {
					nn.SameBits(t, "input gradient", nn.BitsOf(gradIn), wantIn)
					if !tensor.SharesStorage(gradIn, handed) {
						tensor.Put(gradIn)
					}
				}
				nn.SameBits(t, "parameter gradients", nn.BitsOf(seq.Grads()...), wantGrads)
				if !tensor.SharesStorage(y, x) {
					tensor.Put(y)
				}
				if held := outstanding() - o0; held != 0 {
					t.Errorf("asked=%v: %d pooled tensors outstanding after forward and backward, want 0", asked, held)
				}
				taken[asked] = gets() - g0
			}
			if got := taken[true] - taken[false]; got != skipped {
				t.Errorf("asking for no input gradient saved %d pooled tensors, want %d: work below the lowest layer with parameters (layer %d) ran, or work above it did not", got, skipped, low)
			}
		})
	}
}
