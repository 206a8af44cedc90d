package pipedream_test

import (
	"fmt"
	"math/rand"

	"pipedream"
	"pipedream/internal/data"
	"pipedream/internal/nn"
)

// ExamplePlan shows the optimizer choosing configurations: data
// parallelism for ResNet-50's compact weights, a pipeline for VGG-16's
// giant dense layers (the paper's Table 1 logic).
func ExamplePlan() {
	topo := pipedream.ClusterA(4) // 4 servers × 4 V100s, 10 Gbps Ethernet
	for _, name := range []string{"ResNet-50", "VGG-16"} {
		// Paper batch sizes: 128 for ResNet-50, 64 for VGG-16.
		batch := 64
		if name == "ResNet-50" {
			batch = 128
		}
		prof, err := pipedream.Model(name, topo.Device, batch)
		if err != nil {
			panic(err)
		}
		plan, err := pipedream.Plan(prof, topo)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %s\n", name, plan.ConfigString())
	}
	// Output:
	// ResNet-50: 16 (DP)
	// VGG-16: 15-1
}

// ExampleNewPipeline trains a small model through the 1F1B-RR runtime and
// reports that the loss moved.
func ExampleNewPipeline() {
	factory := func() *pipedream.Sequential {
		rng := rand.New(rand.NewSource(1))
		return nn.NewSequential(
			nn.NewDense(rng, "fc1", 4, 16),
			nn.NewTanh("t"),
			nn.NewDense(rng, "fc2", 16, 3),
		)
	}
	train := data.NewBlobs(2, 3, 4, 16, 30)
	prof := pipedream.ProfileModel(factory(), "mlp", train, 4)
	plan, err := pipedream.Plan(prof, pipedream.ClusterA(1))
	if err != nil {
		panic(err)
	}
	p, err := pipedream.NewPipeline(pipedream.PipelineOptions{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         pipedream.SoftmaxCrossEntropy,
		NewOptimizer: func() pipedream.Optimizer { return pipedream.NewSGD(0.1, 0.9, 0) },
	})
	if err != nil {
		panic(err)
	}
	defer p.Close()
	first, err := p.Train(train, 30)
	if err != nil {
		panic(err)
	}
	second, err := p.Train(train, 30)
	if err != nil {
		panic(err)
	}
	fmt.Println("loss improved:", second.MeanLoss() < first.MeanLoss())
	// Output:
	// loss improved: true
}

// ExampleSimulate estimates PipeDream's speedup over data parallelism for
// GNMT-16 on the paper's Cluster-A.
func ExampleSimulate() {
	topo := pipedream.ClusterA(4)
	prof, err := pipedream.Model("GNMT-16", topo.Device, 64)
	if err != nil {
		panic(err)
	}
	plan, err := pipedream.Plan(prof, topo)
	if err != nil {
		panic(err)
	}
	res, err := pipedream.Simulate(pipedream.SimConfig{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: pipedream.PipeDream1F1B, Minibatches: 160,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("pipeline beats 1000 samples/s:", res.Throughput > 1000)
	// Output:
	// pipeline beats 1000 samples/s: false
}

// ExampleNewPlan shows the optimizer trading pipeline depth for
// memory on a small device (§3.1's memory constraint, Figure 18's lever).
func ExampleNewPlan() {
	topo := pipedream.ClusterA(1)
	prof, err := pipedream.Model("GNMT-16", topo.Device, 64)
	if err != nil {
		panic(err)
	}
	plan, err := pipedream.NewPlan(prof, topo, pipedream.PlanOptions{Memory: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s at depth %d\n", plan.ConfigString(), plan.Depth)
	// Output:
	// Straight at depth 7
}
