package nn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pipedream/internal/tensor"
)

// imagesConvStage is the convolutional front of the images task as
// serve-http runs it: both convolutions, each with its ReLU.
func imagesConvStage(rng *rand.Rand) *Sequential {
	g1 := tensor.ConvGeom{InC: 1, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g2 := tensor.ConvGeom{InC: 8, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	return NewSequential(NewConv2D(rng, "conv1", g1, 8), NewReLU("relu1"), NewConv2D(rng, "conv2", g2, 8), NewReLU("relu2"))
}

func panicText(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// A geometry no kernel can run fails where the layer is built, not in a
// stage worker on the first request; a wrong-shaped input names the layer
// the way Dense does.
func TestConvRejectsBadGeometryAndInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 0, Stride: 1}
	for name, build := range map[string]func(){
		"NewConv2D":    func() { NewConv2D(rng, "c", bad, 2) },
		"NewMaxPool2D": func() { NewMaxPool2D("p", bad) },
		"NewAvgPool2D": func() { NewAvgPool2D("p", bad) },
	} {
		if msg := panicText(build); !strings.Contains(msg, "KW must be at least 1") {
			t.Errorf("%s with KW 0: %q, want a panic naming KW", name, msg)
		}
	}
	conv1 := imagesConvStage(rng).Layers[0].(*Conv2D)
	x := tensor.New(3, 2, 12, 12)
	want := "nn: conv1 forward input [3 2 12 12], want [B,1,12,12]"
	if msg := panicText(func() { conv1.Forward(x, false) }); msg != want {
		t.Errorf("Forward: %q, want %q", msg, want)
	}
}

// Between Forward and Backward a Conv2D holds no pooled tensor of its
// own: its context is its input, and the only tensor outstanding is the
// output, the caller's.
func TestConvHoldsNoPooledTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv2 := imagesConvStage(rng).Layers[2].(*Conv2D)
	x := tensor.Randn(rng, 1, 4, 8, 12, 12)
	outstanding := func() int64 {
		hits, misses, puts := tensor.PoolCounters()
		return hits + misses - puts
	}
	before := outstanding()
	y, ctx := conv2.Forward(x, true)
	if ctx != Context(x) {
		t.Fatalf("context is %T %v, want the input itself", ctx, ctx)
	}
	if held := outstanding() - before; held != 1 {
		t.Fatalf("%d pooled tensors outstanding after Forward, want 1 (the output)", held)
	}
	tensor.Put(conv2.Backward(ctx, y))
	tensor.Put(y)
	if held := outstanding() - before; held != 0 {
		t.Fatalf("%d pooled tensors outstanding after Backward, want 0", held)
	}
}
