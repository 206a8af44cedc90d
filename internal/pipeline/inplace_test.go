package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// commChain is the benchmark's train-comm model at a small width, cut as
// train-comm is: Embedding | ReLU | ReLU | FlattenTime+Dense.
func commChain() *nn.Sequential {
	rng := rand.New(rand.NewSource(9))
	return nn.NewSequential(nn.NewEmbedding(rng, "emb", 4, 16), nn.NewReLU("r1"), nn.NewReLU("r2"),
		nn.NewFlattenTime("ft"), nn.NewDense(rng, "dec", 16, 4))
}

func commPlan(t *testing.T) *partition.Plan {
	t.Helper()
	plan, err := partition.NewPlan(syntheticProfileFor(commChain()), topology.Flat(4, 1e9, topology.V100),
		partition.PlanOptions{Stages: stagesOf(0, 1, 2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// The train-comm chain, whose middle stages run their ReLU over the
// activation and the gradient they were delivered, trains at depth 1 bit
// for bit as one worker running the whole model does — losses and final
// weights — over in-process channels and loopback TCP, with and without
// recomputation; and its op log passes schedule.Validate.
func TestCommChainTrainsBitEqualInPlace(t *testing.T) {
	const mbs = 12
	ds := data.NewSequenceCopy(3, 4, 8, 4, mbs)
	ref := commChain()
	opt := nn.NewSGD(0.1, 0.9, 0)
	var wantLosses []float64
	for mb := 0; mb < mbs; mb++ {
		batch := ds.Batch(mb)
		y, ctx := ref.Forward(batch.X, true)
		loss, grad := nn.SoftmaxCrossEntropy(y, batch.Labels)
		wantLosses = append(wantLosses, loss)
		ref.Backward(ctx, grad)
		opt.Step(ref.Params(), ref.Grads())
	}
	wantWeights := bitsOf(ref.Params())

	for _, tcp := range []bool{false, true} {
		for _, recompute := range []bool{false, true} {
			opts := baseOptions(commChain, commPlan(t))
			opts.Recompute = recompute
			opts.OpLog = metrics.NewOpLog(0)
			if tcp {
				tr, err := transport.NewTCP(4, 64)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				opts.Transport = tr
			}
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Train(ds, mbs)
			if err != nil {
				t.Fatal(err)
			}
			for mb, want := range wantLosses {
				if math.Float64bits(rep.Losses[mb]) != math.Float64bits(want) {
					t.Fatalf("tcp=%v recompute=%v: loss[%d] = %v, one worker %v", tcp, recompute, mb, rep.Losses[mb], want)
				}
			}
			if !sameBits(bitsOf(p.CollectModel().Params()), wantWeights) {
				t.Fatalf("tcp=%v recompute=%v: final weights differ from one worker's", tcp, recompute)
			}
			validateOpLog(t, opts.OpLog, opts.Plan, mbs)
			p.Close()
		}
	}
}

// A one-ReLU stage of the train-comm chain takes one pooled tensor per
// minibatch, its keep mask: the output is the delivered activation it
// wrote over, and the input gradient the delivered gradient. Under
// recomputation, which re-runs the forward from the input, both forwards
// take an output too.
func TestOneReLUStageTakesOnlyItsMask(t *testing.T) {
	gets := func() int64 {
		hits, misses, _ := tensor.PoolCounters()
		return hits + misses
	}
	for _, c := range []struct {
		recompute        bool
		fwdGets, bwdGets int64
	}{{false, 1, 0}, {true, 2, 2}} {
		opts := baseOptions(commChain, commPlan(t))
		opts.Recompute = c.recompute
		p, sw := handWorker(t, opts, 1)
		delivered := func(scale float32) *tensor.Tensor {
			d := tensor.GetRaw(4, 8, 16)
			for i := range d.Data {
				d.Data[i] = float32(i%7)/7*scale - 0.4
			}
			return d
		}
		ab := newRunAbort()
		o0 := outstanding()
		x := delivered(1)
		g0 := gets()
		if err := sw.forward(transport.Message{Kind: transport.Activation, Tensor: x, Labels: make([]int, 32)}, ab); err != nil {
			t.Fatal(err)
		}
		fwd := gets() - g0
		g := delivered(2)
		g0 = gets()
		if err := sw.backward(transport.Message{Kind: transport.Gradient, Tensor: g}, ab); err != nil {
			t.Fatal(err)
		}
		if bwd := gets() - g0; fwd != c.fwdGets || bwd != c.bwdGets {
			t.Errorf("recompute=%v: the forward took %d pooled tensors and the backward %d, want %d and %d",
				c.recompute, fwd, bwd, c.fwdGets, c.bwdGets)
		}
		if held := outstanding() - o0; held != 0 {
			t.Errorf("recompute=%v: %d pooled tensors outstanding after the backward, want 0", c.recompute, held)
		}
		p.Close()
	}
}
