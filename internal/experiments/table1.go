package experiments

import (
	"fmt"
	"math/rand"

	"pipedream/internal/data"
	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/statseff"
	"pipedream/internal/topology"
)

func init() {
	register("tbl1", "Table 1: PipeDream speedup over data parallelism (epoch time and time-to-accuracy)", tbl1)
}

// table1Case is one row of the paper's Table 1.
type table1Case struct {
	model       string
	topo        *topology.Topology
	cfgLabel    string
	task        string // "image" or "sequence" — selects the stat-eff stand-in
	paperConfig string
	paperTTA    string
}

func table1Cases() []table1Case {
	return []table1Case{
		{"VGG-16", topology.ClusterA(4), "4x4 (A)", "image", "15-1", "5.28x"},
		{"VGG-16", topology.ClusterB(2), "2x8 (B)", "image", "15-1", "2.46x"},
		{"ResNet-50", topology.ClusterA(4), "4x4 (A)", "image", "16 (DP)", "1x"},
		{"ResNet-50", topology.ClusterB(2), "2x8 (B)", "image", "16 (DP)", "1x"},
		{"AlexNet", topology.ClusterA(4), "4x4 (A)", "image", "15-1", "4.92x (epoch)"},
		{"AlexNet", topology.ClusterB(2), "2x8 (B)", "image", "15-1", "2.04x (epoch)"},
		{"GNMT-16", topology.ClusterA(1), "1x4 (A)", "sequence", "Straight", "2.2x"},
		{"GNMT-16", topology.ClusterA(4), "4x4 (A)", "sequence", "Straight", "2.92x"},
		{"GNMT-16", topology.ClusterB(2), "2x8 (B)", "sequence", "Straight", "3.14x"},
		{"GNMT-8", topology.ClusterA(1), "1x4 (A)", "sequence", "Straight", "1.5x"},
		{"GNMT-8", topology.ClusterA(3), "3x4 (A)", "sequence", "Straight", "2.95x"},
		{"GNMT-8", topology.ClusterB(2), "2x8 (B)", "sequence", "16 (DP)", "1x"},
		{"AWD-LM", topology.ClusterA(1), "1x4 (A)", "sequence", "Straight", "4.25x"},
		{"S2VT", topology.ClusterC(4), "4x1 (C)", "sequence", "2-1-1", "3.01x"},
	}
}

// pipelineEpochSpeedup is the optimizer plan's price over the
// data-parallel baseline's for one case, priced on t.
func pipelineEpochSpeedup(t *Table, c table1Case) (*partition.Plan, float64, error) {
	prof, err := modelzoo.ByName(c.model, c.topo.Device, modelzoo.PaperBatchSize(c.model))
	if err != nil {
		return nil, 0, err
	}
	plan, err := partition.NewPlan(prof, c.topo, partition.PlanOptions{})
	if err != nil {
		return nil, 0, err
	}
	dp, err := dpPlan(prof, c.topo, c.topo.TotalWorkers())
	if err != nil {
		return nil, 0, err
	}
	speedup := t.price(c.model+" "+c.cfgLabel, prof, c.topo, plan) / dp.PredictedThroughput
	if speedup < 1 || plan.IsDataParallel() {
		// The optimizer considers plain data parallelism a configuration
		// too: when the pipeline is not priced above DP, the deployment
		// falls back to DP (as it does for ResNet-50), and DP is 1x by
		// definition.
		return dp, 1.0, nil
	}
	return plan, speedup, nil
}

// statEffRatio measures epochs-to-target of BSP data parallelism divided
// by PipeDream with weight stashing, on a real small stand-in model for
// the task class. A ratio of 1.0 means pipelining costs no statistical
// efficiency (the paper's Figure 11 claim); TTA speedup = epoch speedup ×
// this ratio.
func statEffRatio(task string) (float64, error) {
	switch task {
	case "image":
		cfg := statseff.Config{
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(17))
				return nn.NewSequential(
					nn.NewDense(rng, "fc1", 2, 24),
					nn.NewTanh("t1"),
					nn.NewDense(rng, "fc2", 24, 24),
					nn.NewTanh("t2"),
					nn.NewDense(rng, "fc3", 24, 3),
				)
			},
			Train:        data.NewSpiral(29, 3, 16, 40),
			Eval:         data.NewSpiral(31, 3, 32, 8),
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
			Loss:         nn.SoftmaxCrossEntropy,
			Epochs:       15,
		}
		return measureRatio(cfg, 5, 3, 0.85)
	case "sequence":
		cfg := statseff.Config{
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(19))
				return nn.NewSequential(
					nn.NewEmbedding(rng, "emb", 8, 12),
					nn.NewLSTM(rng, "lstm1", 12, 24),
					nn.NewLSTM(rng, "lstm2", 24, 24),
					nn.NewFlattenTime("ft"),
					nn.NewDense(rng, "dec", 24, 8),
				)
			},
			Train:        data.NewSequenceCopy(37, 8, 6, 16, 30),
			Eval:         data.NewSequenceCopy(41, 8, 6, 32, 6),
			NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
			Loss:         nn.SoftmaxCrossEntropy,
			Epochs:       12,
		}
		return measureRatio(cfg, 5, 3, 0.9)
	}
	return 1, fmt.Errorf("experiments: unknown task %q", task)
}

// measureRatio runs BSP and PipeDream-with-stashing on cfg and returns
// epochsBSP / epochsPipeDream for the target score.
func measureRatio(cfg statseff.Config, layers, stages int, target float64) (float64, error) {
	bsp, err := statseff.TrainBSP(cfg, stages)
	if err != nil {
		return 0, err
	}
	plan, err := straightPlanLayers(layers, stages)
	if err != nil {
		return 0, err
	}
	pd, err := statseff.TrainPipeline(cfg, plan, pipeline.WeightStashing)
	if err != nil {
		return 0, err
	}
	be, pe := bsp.EpochsToTarget(target), pd.EpochsToTarget(target)
	if be <= 0 || pe <= 0 {
		// One of the runs did not reach the target within the budget:
		// fall back to comparing final scores.
		if pd.Final() >= bsp.Final()-0.05 {
			return 1, nil
		}
		return bsp.Final() / pd.Final(), nil
	}
	return float64(be) / float64(pe), nil
}

func straightPlanLayers(layers, stages int) (*partition.Plan, error) {
	prof := timelineProfile(layers)
	var specs []partition.StageSpec
	per := layers / stages
	first := 0
	for s := 0; s < stages; s++ {
		last := first + per - 1
		if s == stages-1 {
			last = layers - 1
		}
		specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: last, Replicas: 1})
		first = last + 1
	}
	return partition.NewPlan(prof, topology.Flat(stages, 1e9, topology.V100), partition.PlanOptions{Stages: specs})
}

func tbl1(quick bool) ([]*Table, error) {
	t := &Table{ID: "tbl1", Title: "PipeDream vs data parallelism",
		Header: []string{"model", "cluster", "config (ours)", "config (paper)",
			"epoch speedup", "TTA speedup", "paper TTA"}}
	ratios := map[string]float64{}
	for _, task := range []string{"image", "sequence"} {
		if quick {
			ratios[task] = 1.0
			continue
		}
		r, err := statEffRatio(task)
		if err != nil {
			return nil, err
		}
		ratios[task] = r
	}
	for _, c := range table1Cases() {
		plan, epochSpeedup, err := pipelineEpochSpeedup(t, c)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", c.model, c.cfgLabel, err)
		}
		tta := epochSpeedup * ratios[c.task]
		t.AddRow(c.model, c.cfgLabel, plan.ConfigString(), c.paperConfig,
			f2(epochSpeedup)+"x", f2(tta)+"x", c.paperTTA)
	}
	if quick {
		t.AddNote("quick mode: statistical-efficiency ratio assumed 1.0 (full run measures it)")
	} else {
		t.AddNote("measured statistical-efficiency ratio (BSP epochs / PipeDream epochs): image %.2f, sequence %.2f",
			ratios["image"], ratios["sequence"])
	}
	t.AddNote("paper shape: VGG-16/AlexNet ~5x on Cluster-A (weight-heavy FC tail split off),")
	t.AddNote("ResNet-50 ~1x (optimizer falls back to DP), GNMT straight pipelines 1.5-3x,")
	t.AddNote("AWD-LM ~4x on one server, S2VT ~3x on Cluster-C")
	return []*Table{t}, nil
}
