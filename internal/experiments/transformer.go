package experiments

import (
	"fmt"

	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/topology"
)

func init() {
	register("ext-transformer", "Extension: pipeline parallelism on a BERT-Large transformer (the architecture 1F1B became standard for)", extTransformer)
}

// extTransformer applies the full PipeDream workflow to BERT-Large — the
// model family (deep stacks of uniform attention blocks with large
// embeddings) for which 1F1B pipeline parallelism later became the
// standard strategy in Megatron-LM and DeepSpeed. The calibration note in
// §2.3 anticipated this: "attention layers" are listed among the model
// diversity the optimizer must handle.
func extTransformer(quick bool) ([]*Table, error) {
	t := &Table{ID: "ext-transformer", Title: "BERT-Large (340M params): PipeDream vs data parallelism",
		Header: []string{"cluster", "config", "DP (samples/s)", "PipeDream (samples/s)", "speedup"}}
	for _, topo := range []*topology.Topology{topology.ClusterA(4), topology.ClusterB(2)} {
		prof := modelzoo.BERTLarge(topo.Device, modelzoo.PaperBatchSize("BERT-Large"))
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
		if err != nil {
			return nil, err
		}
		dp, err := dpPlan(prof, topo, topo.TotalWorkers())
		if err != nil {
			return nil, err
		}
		dpTput, pdTput := dp.PredictedThroughput, t.price(topo.Name, prof, topo, plan)
		t.AddRow(topo.Name, plan.ConfigString(), f1(dpTput), f1(pdTput),
			f2(pdTput/dpTput)+"x")
		if pdTput < dpTput {
			return nil, fmt.Errorf("ext-transformer: pipeline slower than DP on %s", topo.Name)
		}
	}
	t.AddNote("deep stacks of uniform blocks partition cleanly into balanced stages; the 340 MB")
	t.AddNote("of parameters make cross-server all_reduce expensive — the combination that made")
	t.AddNote("1F1B the standard for transformer training (DeepSpeed, Megatron-LM, torch.pipeline)")
	return []*Table{t}, nil
}
