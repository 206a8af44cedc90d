// Transformer: the model family for which 1F1B pipeline parallelism
// became the industry standard (Megatron-LM, DeepSpeed). Two parts:
//
//  1. plan BERT-Large (340M params) with the optimizer on the paper's
//     clusters and show the predicted speedup over data parallelism;
//  2. actually pipeline-train a small self-attention model (a
//     gradient-checked attention layer) through the 1F1B-RR runtime.
package main

import (
	"fmt"
	"log"

	"pipedream"
	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/topology"
)

func main() {
	// Part 1: plan BERT-Large.
	fmt.Println("=== BERT-Large (24 blocks, 340M params) ===")
	for _, topo := range []*pipedream.Topology{pipedream.ClusterA(4), pipedream.ClusterB(2)} {
		prof := modelzoo.BERTLarge(topo.Device, 16)
		plan, err := pipedream.Plan(prof, topo)
		if err != nil {
			log.Fatal(err)
		}
		dp, err := pipedream.DataParallelPlan(prof, topo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s → %-10s predicted %.0f samples/s vs DP %.0f (%.1fx, DP comm overhead %.0f%%)\n",
			topo.Name, plan.ConfigString(), plan.PredictedThroughput,
			dp.PredictedThroughput, plan.PredictedThroughput/dp.PredictedThroughput, cluster.SyncStall(prof, dp)*100)
	}

	// Part 2: really train attention through the pipeline.
	fmt.Println("\n=== pipeline-training a self-attention model (5 layers, 3 stages) ===")
	s := modelzoo.TransformerStandIn(47)
	prof := pipedream.ProfileModel(s.Factory(), s.Name, s.Train, 4)
	plan, err := partition.NewPlan(prof, topology.Flat(3, 1e9, topology.V100), partition.PlanOptions{Stages: []pipedream.StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 1}, // embedding
		{FirstLayer: 1, LastLayer: 1, Replicas: 1}, // self-attention
		{FirstLayer: 2, LastLayer: 4, Replicas: 1}, // norm + decoder
	}})
	if err != nil {
		log.Fatal(err)
	}
	p, err := pipedream.NewPipeline(pipedream.PipelineOptions{
		ModelFactory: s.Factory,
		Plan:         plan,
		Loss:         pipedream.SoftmaxCrossEntropy,
		NewOptimizer: s.NewOptimizer,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	for epoch := 1; epoch <= 6; epoch++ {
		rep, err := p.Train(s.Train, s.Train.NumBatches())
		if err != nil {
			log.Fatal(err)
		}
		model := p.CollectModel()
		correct, total := 0, 0
		for i := 0; i < s.Eval.NumBatches(); i++ {
			b := s.Eval.Batch(i)
			y, _ := model.Forward(b.X, false)
			correct += int(pipedream.Accuracy(y, b.Labels) * float64(len(b.Labels)))
			total += len(b.Labels)
		}
		fmt.Printf("epoch %d: loss %.4f, per-token accuracy %.1f%%\n",
			epoch, rep.MeanLoss(), 100*float64(correct)/float64(total))
	}
}
