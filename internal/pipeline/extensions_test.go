package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
)

// Recomputation must be numerically identical to stashing contexts: the
// backward pass re-runs the forward under the same stashed weights, so
// gradients — and therefore the whole training trajectory — match.
func TestRecomputeMatchesStashedActivationsExactly(t *testing.T) {
	factory := mlpFactory(7, 4, 8, 3)
	ds := data.NewBlobs(11, 3, 4, 8, 30)
	run := func(recompute bool) []float64 {
		p, err := New(Options{
			ModelFactory:  factory,
			Plan:          evenPlan(t, factory, 3, 1),
			Loss:          nn.SoftmaxCrossEntropy,
			NewOptimizer:  func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
			RuntimeConfig: RuntimeConfig{Recompute: recompute},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rep, err := p.Train(ds, 30)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Losses
	}
	plain := run(false)
	recomp := run(true)
	for i := range plain {
		if plain[i] != recomp[i] {
			t.Fatalf("loss[%d]: stash %v vs recompute %v", i, plain[i], recomp[i])
		}
	}
}

// Recomputation trades activation-stash memory for compute: on a Dense/Tanh
// MLP the peak stash bytes shrink, only stage inputs remaining. On a ReLU
// chain the plain stash is the smaller one: it keeps one mask bit per
// element and drops the stage input, which recomputation must keep.
func TestRecomputeShrinksStash(t *testing.T) {
	// A model with a large hidden layer so contexts dominate the stash.
	factory := mlpFactory(9, 4, 64, 3)
	ds := data.NewBlobs(13, 3, 4, 16, 20)
	peak := func(recompute bool) int64 {
		p, err := New(Options{
			ModelFactory:  factory,
			Plan:          evenPlan(t, factory, 3, 1),
			Loss:          nn.SoftmaxCrossEntropy,
			NewOptimizer:  func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
			RuntimeConfig: RuntimeConfig{Recompute: recompute},
			Mode:          NoStashing, // isolate activation memory from weight stashes
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rep, err := p.Train(ds, 20)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, b := range rep.PeakStashBytes {
			total += b
		}
		return total
	}
	if r, s := peak(true), peak(false); r >= s {
		t.Fatalf("Dense/Tanh: recompute stash %d, plain %d: want recompute smaller", r, s)
	}
	factory = func() *nn.Sequential {
		rng := rand.New(rand.NewSource(9))
		return nn.NewSequential(nn.NewDense(rng, "fc1", 4, 64), nn.NewReLU("r1"), nn.NewReLU("r2"), nn.NewDense(rng, "fc2", 64, 3))
	}
	if r, s := peak(true), peak(false); s >= r {
		t.Fatalf("ReLU chain: plain stash %d, recompute %d: want plain smaller", s, r)
	}
}

// Gradient accumulation over N minibatches must equal training with a
// single N-times-larger batch step: compare against a manual reference.
func TestGradAccumulationMatchesLargeBatchReference(t *testing.T) {
	const accum = 2
	factory := mlpFactory(17, 4, 8, 3)
	ds := data.NewBlobs(19, 3, 4, 8, 12)

	// Reference: sequential training applying the averaged gradient of
	// every pair of minibatches.
	ref := factory()
	refOpt := nn.NewSGD(0.1, 0, 0)
	for mb := 0; mb < 12; mb += accum {
		acc := nn.SnapshotParams(ref.Grads())
		for _, a := range acc {
			a.Zero()
		}
		for k := 0; k < accum; k++ {
			b := ds.Batch(mb + k)
			y, ctx := ref.Forward(b.X, true)
			_, grad := nn.SoftmaxCrossEntropy(y, b.Labels)
			ref.Backward(ctx, grad)
			for gi, g := range ref.Grads() {
				acc[gi].Add(g)
			}
		}
		for gi, g := range ref.Grads() {
			g.CopyFrom(acc[gi])
			g.Scale(1.0 / accum)
		}
		refOpt.Step(ref.Params(), ref.Grads())
	}

	// Pipeline with depth 1 (no staleness) and gradient accumulation.
	plan := evenPlan(t, factory, 1, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		SyncConfig:   SyncConfig{GradAccumulation: accum},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 12); err != nil {
		t.Fatal(err)
	}
	got := p.CollectModel().Params()
	want := ref.Params()
	for i := range want {
		if !got[i].AllClose(want[i], 1e-6) {
			t.Fatalf("param %d differs from large-batch reference", i)
		}
	}
}

// A partial accumulation window at the end of training must not lose the
// pending gradients silently — the final smaller group still updates.
func TestGradAccumulationPartialWindow(t *testing.T) {
	factory := mlpFactory(23, 4, 8, 3)
	ds := data.NewBlobs(29, 3, 4, 8, 5)
	plan := evenPlan(t, factory, 1, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.5, 0, 0) },
		SyncConfig:   SyncConfig{GradAccumulation: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	before := p.CollectModel().Params()[0].Clone()
	if _, err := p.Train(ds, 5); err != nil {
		t.Fatal(err)
	}
	after := p.CollectModel().Params()[0]
	// 5 minibatches with window 4: one full update applied; params moved.
	if after.AllClose(before, 0) {
		t.Fatal("no update applied with accumulation window 4 over 5 minibatches")
	}
}

// Recompute composes with weight stashing: the version probe must still
// see identical weights at (re)forward and backward time.
func TestRecomputeWithStashingKeepsVersions(t *testing.T) {
	factory := mlpFactory(31, 4, 8, 3)
	ds := data.NewBlobs(37, 3, 4, 8, 24)
	p, err := New(Options{
		ModelFactory:  factory,
		Plan:          evenPlan(t, factory, 3, 1),
		Loss:          nn.SoftmaxCrossEntropy,
		NewOptimizer:  func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		Mode:          WeightStashing,
		RuntimeConfig: RuntimeConfig{Recompute: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r1, err := p.Train(ds, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range r1.Losses {
		if math.IsNaN(l) {
			t.Fatalf("loss[%d] is NaN", i)
		}
	}
}

// Checkpoint/restore must preserve the optimizer's momentum so a resumed
// pipeline's trajectory exactly matches an uninterrupted one.
func TestCheckpointPreservesOptimizerState(t *testing.T) {
	factory := mlpFactory(61, 4, 8, 3)
	ds := data.NewBlobs(67, 3, 4, 8, 30)
	mk := func() *Pipeline {
		plan := evenPlan(t, factory, 2, 1)
		plan.Depth = 1 // determinism
		p, err := New(Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) }, // momentum matters
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Uninterrupted: 30 minibatches.
	ref := mk()
	defer ref.Close()
	if _, err := ref.Train(ds, 30); err != nil {
		t.Fatal(err)
	}

	// Interrupted at 15, checkpointed, restored into a NEW pipeline.
	p1 := mk()
	if _, err := p1.Train(ds, 15); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	p2 := mk()
	defer p2.Close()
	if err := p2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	// Restore rewinds p2's minibatch cursor to the checkpoint's (15), so
	// Train continues with exactly the minibatches the failure interrupted.
	if _, err := p2.Train(ds, 15); err != nil {
		t.Fatal(err)
	}
	got := p2.CollectModel().Params()
	want := ref.CollectModel().Params()
	for i := range want {
		if !got[i].AllClose(want[i], 1e-6) {
			t.Fatalf("param %d: resumed run diverged from uninterrupted run", i)
		}
	}
}
