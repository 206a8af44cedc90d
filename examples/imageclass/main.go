// Image classification: train a small CNN on synthetic images with a
// replicated-first-stage pipeline (the paper's "2-1-1"-style
// configuration, Figure 8) and compare epochs-to-accuracy against BSP
// data parallelism — demonstrating that 1F1B-RR with weight stashing
// matches DP's statistical efficiency (Figure 11's claim) on real
// convolutions.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pipedream"
	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/statseff"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
)

func main() {
	factory := func() *pipedream.Sequential {
		rng := rand.New(rand.NewSource(7))
		g1 := tensor.ConvGeom{InC: 1, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 1}
		g2 := tensor.ConvGeom{InC: 6, InH: 10, InW: 10, KH: 2, KW: 2, Stride: 2}
		return nn.NewSequential(
			nn.NewConv2D(rng, "conv1", g1, 6),
			nn.NewReLU("relu1"),
			nn.NewMaxPool2D("pool1", g2),
			nn.NewFlatten("flat"),
			nn.NewDense(rng, "fc1", 6*5*5, 32),
			nn.NewTanh("tanh"),
			nn.NewDense(rng, "fc2", 32, 6),
		)
	}
	cfg := statseff.Config{
		Factory:      factory,
		Train:        data.NewImages(11, 6, 1, 10, 16, 40),
		Eval:         data.NewImages(13, 6, 1, 10, 32, 6),
		NewOptimizer: func() pipedream.Optimizer { return pipedream.NewSGD(0.01, 0.9, 0) },
		Loss:         pipedream.SoftmaxCrossEntropy,
		Epochs:       8,
	}

	// 2-1-1 pipeline: conv front replicated twice, two more stages.
	prof := pipedream.ProfileModel(factory(), "cnn", cfg.Train, 4)
	plan, err := partition.NewPlan(prof, topology.Flat(4, 1e9, topology.V100), partition.PlanOptions{Stages: []pipedream.StageSpec{
		{FirstLayer: 0, LastLayer: 2, Replicas: 2},
		{FirstLayer: 3, LastLayer: 5, Replicas: 1},
		{FirstLayer: 6, LastLayer: 6, Replicas: 1},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline config %s on 4 workers, depth %d\n\n", plan.ConfigString(), plan.Depth)

	bsp, err := statseff.TrainBSP(cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	pd, err := statseff.TrainPipeline(cfg, plan, pipedream.WeightStashing)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch   BSP-DP accuracy   PipeDream(2-1-1) accuracy")
	for e := 0; e < cfg.Epochs; e++ {
		fmt.Printf("%5d   %14.1f%%   %24.1f%%\n", e+1, 100*bsp.Score[e], 100*pd.Score[e])
	}
	fmt.Printf("\nfinal: BSP %.1f%% vs PipeDream %.1f%% — weight stashing preserves\n",
		100*bsp.Final(), 100*pd.Final())
	fmt.Println("statistical efficiency while the pipeline removes DP's all_reduce stalls.")
}
