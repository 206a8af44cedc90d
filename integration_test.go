package pipedream

import (
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
)

// cnnFactory builds a small but real CNN (conv → pool → dense) whose
// measured profile is non-uniform, so the optimizer has real decisions to
// make.
func cnnFactory(seed int64) func() *Sequential {
	return func() *Sequential {
		rng := rand.New(rand.NewSource(seed))
		g1 := tensor.ConvGeom{InC: 1, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 1}
		g2 := tensor.ConvGeom{InC: 6, InH: 10, InW: 10, KH: 2, KW: 2, Stride: 2}
		return nn.NewSequential(
			nn.NewConv2D(rng, "conv1", g1, 6),
			nn.NewReLU("relu1"),
			nn.NewMaxPool2D("pool1", g2),
			nn.NewFlatten("flat"),
			nn.NewDense(rng, "fc1", 6*5*5, 24),
			nn.NewTanh("tanh"),
			nn.NewDense(rng, "fc2", 24, 4),
		)
	}
}

// TestProfileDrivenPipelineTraining closes the full loop the paper
// describes (Figure 6): profile the real model, run the optimizer on the
// measured profile, execute the resulting plan on the real runtime, and
// verify the model learns.
func TestProfileDrivenPipelineTraining(t *testing.T) {
	factory := cnnFactory(5)
	train := data.NewImages(7, 4, 1, 10, 8, 40)

	prof := ProfileModel(factory(), "cnn", train, 4)
	// Optimize for a 3-worker flat deployment with modest bandwidth so
	// the measured (microsecond-scale) compute times still dominate.
	topo := topology.Flat(3, 100<<20, topology.V100)
	plan, err := Plan(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(PipelineOptions{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         SoftmaxCrossEntropy,
		NewOptimizer: func() Optimizer { return NewSGD(0.02, 0.9, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var first, last float64
	for epoch := 0; epoch < 6; epoch++ {
		rep, err := p.Train(train, train.NumBatches())
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			first = rep.MeanLoss()
		}
		last = rep.MeanLoss()
	}
	if last >= first {
		t.Fatalf("loss did not improve: %v → %v (plan %s)", first, last, plan.ConfigString())
	}
}

// TestFailureRecoveryViaCheckpoints simulates the paper's fault-tolerance
// story (§4): train, checkpoint each stage locally, "lose" the pipeline,
// restart from the last checkpoint, and verify training resumes from the
// saved state rather than from scratch.
func TestFailureRecoveryViaCheckpoints(t *testing.T) {
	factory := cnnFactory(11)
	train := data.NewImages(13, 4, 1, 10, 8, 30)
	newPipe := func() *Pipeline {
		p, err := NewPipeline(PipelineOptions{
			ModelFactory: factory,
			Plan:         mustEvenPlan(t, factory, 3),
			Loss:         SoftmaxCrossEntropy,
			NewOptimizer: func() Optimizer { return NewSGD(0.02, 0.9, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p1 := newPipe()
	if _, err := p1.Train(train, train.NumBatches()); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pipedream-failure")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := p1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	trained := p1.CollectModel().Params()
	p1.Close() // the "failure"

	p2 := newPipe()
	defer p2.Close()
	if err := p2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	restored := p2.CollectModel().Params()
	for i := range trained {
		if !restored[i].AllClose(trained[i], 0) {
			t.Fatalf("restored param %d differs from checkpointed state", i)
		}
	}
	// Training continues from the restored state.
	rep, err := p2.Train(train, train.NumBatches())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanLoss() <= 0 {
		t.Fatal("no training happened after restore")
	}
	after := p2.CollectModel().Params()
	if after[0].AllClose(trained[0], 0) {
		t.Fatal("weights unchanged after post-restore training")
	}
}

func mustEvenPlan(t *testing.T, factory func() *Sequential, stages int) *PartitionPlan {
	t.Helper()
	model := factory()
	prof := &ModelProfile{Model: "t", MinibatchSize: 1, InputBytes: 4}
	for range model.Layers {
		prof.Layers = append(prof.Layers, LayerProfile{
			Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4,
		})
	}
	n := len(model.Layers)
	per := n / stages
	var specs []StageSpec
	first := 0
	for s := 0; s < stages; s++ {
		last := first + per - 1
		if s == stages-1 {
			last = n - 1
		}
		specs = append(specs, StageSpec{FirstLayer: first, LastLayer: last, Replicas: 1})
		first = last + 1
	}
	plan, err := partition.NewPlan(prof, topology.Flat(stages, 1e9, topology.V100), partition.PlanOptions{Stages: specs})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPipelineRandomConfigsProperty trains random pipeline shapes (stage
// counts, replication, depth, staleness mode, recomputation, gradient
// accumulation) end to end and asserts the runtime never deadlocks and
// always produces finite losses for every minibatch.
func TestPipelineRandomConfigsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 4 + rng.Intn(3)*2 // 4, 6, or 8 layers
		factory := func() *Sequential {
			mrng := rand.New(rand.NewSource(seed))
			var ls []nn.Layer
			dims := 4
			for i := 0; i < layers/2; i++ {
				ls = append(ls, nn.NewDense(mrng, "fc", dims, 8), nn.NewTanh("t"))
				dims = 8
			}
			ls = append(ls[:len(ls)-1], nn.NewDense(mrng, "out", 8, 3))
			return nn.NewSequential(ls...)
		}
		model := factory()
		n := len(model.Layers)
		stages := 1 + rng.Intn(min(n, 4))
		replicas := 1 + rng.Intn(2)
		mode := []pipeline.StalenessMode{WeightStashing, VerticalSync, NoStashing}[rng.Intn(3)]
		depth := rng.Intn(4) // 0 = the plan's own depth

		prof := &ModelProfile{Model: "t", MinibatchSize: 1, InputBytes: 4}
		for range model.Layers {
			prof.Layers = append(prof.Layers, LayerProfile{
				Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4,
			})
		}
		per := n / stages
		var specs []StageSpec
		first := 0
		for s := 0; s < stages; s++ {
			last := first + per - 1
			if s == stages-1 {
				last = n - 1
			}
			rep := 1
			if s == 0 {
				rep = replicas
			}
			specs = append(specs, StageSpec{FirstLayer: first, LastLayer: last, Replicas: rep})
			first = last + 1
		}
		workers := stages - 1 + replicas
		plan, err := partition.NewPlan(prof, topology.Flat(workers, 1e9, topology.V100), partition.PlanOptions{Stages: specs})
		if err != nil {
			t.Fatalf("seed %d: evaluate: %v", seed, err)
		}
		if depth > 0 {
			plan.Depth = depth
		}
		ds := data.NewBlobs(seed+1, 3, 4, 4, 17) // odd count exercises partial all-reduce rounds
		p, err := NewPipeline(PipelineOptions{
			ModelFactory:  factory,
			Plan:          plan,
			Loss:          SoftmaxCrossEntropy,
			NewOptimizer:  func() Optimizer { return NewSGD(0.05, 0, 0) },
			Mode:          mode,
			RuntimeConfig: RuntimeConfig{Recompute: rng.Intn(2) == 0},
			SyncConfig:    SyncConfig{GradAccumulation: rng.Intn(3)},
		})
		if err != nil {
			t.Fatalf("seed %d: new: %v", seed, err)
		}
		defer p.Close()
		rep, err := p.Train(ds, 17)
		if err != nil {
			t.Fatalf("seed %d: train: %v", seed, err)
		}
		for i, l := range rep.Losses {
			if l <= 0 || l != l { // zero means a lost minibatch; NaN means blow-up
				t.Logf("seed %d (stages %d, replicas %d, mode %v, depth %d): loss[%d] = %v",
					seed, stages, replicas, mode, depth, i, l)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
