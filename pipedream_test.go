package pipedream

import (
	"math/rand"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
)

// TestEndToEndWorkflow exercises the full public API: build → profile →
// plan → pipeline-train → evaluate, on a 4-worker in-process pipeline.
func TestEndToEndWorkflow(t *testing.T) {
	factory := func() *Sequential {
		rng := rand.New(rand.NewSource(9))
		return nn.NewSequential(
			nn.NewDense(rng, "fc1", 4, 16),
			nn.NewTanh("t1"),
			nn.NewDense(rng, "fc2", 16, 16),
			nn.NewTanh("t2"),
			nn.NewDense(rng, "fc3", 16, 3),
		)
	}
	train := data.NewBlobs(11, 3, 4, 16, 40)

	prof := ProfileModel(factory(), "mlp", train, 4)
	if prof.NumLayers() != 5 {
		t.Fatalf("profile has %d layers, want 5", prof.NumLayers())
	}

	topo := ClusterA(1)
	plan, err := Plan(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Depth < 1 {
		t.Fatalf("depth = %d", plan.Depth)
	}

	p, err := NewPipeline(PipelineOptions{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         SoftmaxCrossEntropy,
		NewOptimizer: func() Optimizer { return NewSGD(0.1, 0.9, 0) },
		Mode:         WeightStashing,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := p.Train(train, train.NumBatches()); err != nil {
			t.Fatal(err)
		}
	}
	model := p.CollectModel()
	b := train.Batch(0)
	y, _ := model.Forward(b.X, false)
	if acc := Accuracy(y, b.Labels); acc < 0.8 {
		t.Fatalf("end-to-end accuracy %v, want ≥0.8", acc)
	}
}

// TestSimulateModelZoo drives the simulator through the public API for a
// paper model.
func TestSimulateModelZoo(t *testing.T) {
	topo := ClusterA(4)
	prof, err := Model("VGG-16", topo.Device, 64)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: PipeDream1F1B, Minibatches: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DataParallelPlan(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || dp.Workers != 16 {
		t.Fatalf("throughput %v, dp workers %d", res.Throughput, dp.Workers)
	}
}

func TestModelZooList(t *testing.T) {
	if len(Models()) < 7 {
		t.Fatalf("model zoo has %d models, want ≥7", len(Models()))
	}
}
