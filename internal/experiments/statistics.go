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
	register("fig10", "Accuracy vs training time: PipeDream vs DP (VGG-16 stand-in, 16 GPUs)", fig10)
	register("fig11", "Accuracy vs epoch: weight stashing matches BSP data parallelism", fig11)
	register("fig13", "LARS with large minibatches: statistical efficiency vs batch size", fig13)
	register("asp", "ASP data parallelism: zero comm stalls but degraded convergence", expASP)
	register("abl-stash", "Ablation: weight stashing on/off (gradient validity)", ablStash)
	register("abl-vsync", "Ablation: vertical sync vs plain weight stashing", ablVSync)
	register("abl-repl", "Ablation: stage replication on/off in the optimizer", ablRepl)
	register("abl-topo", "Ablation: topology-aware vs flat optimizer", ablTopo)
}

// standInConfig is the small trainable stand-in used for convergence
// curves (a real model trained by the real runtime). The learning rate
// suits 1F1B's fixed delay: stage s of an n-stage pipeline applies every
// gradient n−s−1 updates late, and a delayed gradient tolerates a step
// size that shrinks with the delay. Over 20 initialisations × {6, 12}
// epochs the 3-stage pipeline ends within 0.15 of BSP's accuracy in 39 of
// 40 runs at 0.05 (mean gap +0.02) but in 24 of 40 at 0.1 (mean −0.12).
func standInConfig(epochs int) statseff.Config {
	return statseff.Config{
		Factory: func() *nn.Sequential {
			rng := rand.New(rand.NewSource(101))
			return nn.NewSequential(
				nn.NewDense(rng, "fc1", 2, 24),
				nn.NewTanh("t1"),
				nn.NewDense(rng, "fc2", 24, 24),
				nn.NewTanh("t2"),
				nn.NewDense(rng, "fc3", 24, 3),
			)
		},
		Train:        data.NewSpiral(103, 3, 16, 40),
		Eval:         data.NewSpiral(107, 3, 32, 8),
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0.9, 0) },
		Loss:         nn.SoftmaxCrossEntropy,
		Epochs:       epochs,
	}
}

// seqStandInConfig is the LSTM stand-in (GNMT-16 analogue).
func seqStandInConfig(epochs int) statseff.Config {
	return statseff.Config{
		Factory: func() *nn.Sequential {
			rng := rand.New(rand.NewSource(113))
			return nn.NewSequential(
				nn.NewEmbedding(rng, "emb", 8, 12),
				nn.NewLSTM(rng, "lstm1", 12, 24),
				nn.NewLSTM(rng, "lstm2", 24, 24),
				nn.NewFlattenTime("ft"),
				nn.NewDense(rng, "dec", 24, 8),
			)
		},
		Train:        data.NewSequenceCopy(127, 8, 6, 16, 30),
		Eval:         data.NewSequenceCopy(131, 8, 6, 32, 6),
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
		Loss:         nn.SoftmaxCrossEntropy,
		Epochs:       epochs,
	}
}

// fig10 combines the priced epoch-time speedup of VGG-16 on 16 GPUs
// with measured convergence of the CNN stand-in to produce accuracy vs
// wall-clock curves.
func fig10(quick bool) ([]*Table, error) {
	epochs := 12
	if quick {
		epochs = 6
	}
	// Hardware efficiency from the planner's price (VGG-16, Cluster-A 4x4).
	t := &Table{ID: "fig10",
		Header: []string{"epoch", "DP time", "DP accuracy", "PipeDream time", "PipeDream accuracy"}}
	topo := topology.ClusterA(4)
	prof := modelzoo.VGG16(topo.Device, 64)
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
	if err != nil {
		return nil, err
	}
	dp, err := dpPlan(prof, topo, topo.TotalWorkers())
	if err != nil {
		return nil, err
	}
	speedup := max(1, t.price("VGG-16 4x4 (A)", prof, topo, plan)/dp.PredictedThroughput)
	// Statistical efficiency from real training.
	cfg := standInConfig(epochs)
	bsp, err := statseff.TrainBSP(cfg, 4)
	if err != nil {
		return nil, err
	}
	plan3, err := straightPlanLayers(5, 3)
	if err != nil {
		return nil, err
	}
	pd, err := statseff.TrainPipeline(cfg, plan3, pipeline.WeightStashing)
	if err != nil {
		return nil, err
	}
	t.Title = fmt.Sprintf("Accuracy vs (relative) time — PipeDream epoch time is %.2fx faster", speedup)
	for e := 0; e < epochs; e++ {
		t.AddRow(fmt.Sprintf("%d", e+1),
			fmt.Sprintf("%.1f", float64(e+1)),
			pct(bsp.Score[e]),
			fmt.Sprintf("%.1f", float64(e+1)/speedup),
			pct(pd.Score[e]))
	}
	t.AddNote("time unit = one DP epoch; PipeDream epochs are %.2fx shorter,", speedup)
	t.AddNote("while accuracy-per-epoch matches — so accuracy-vs-time is shifted left (paper Figure 10)")
	return []*Table{t}, nil
}

// fig11 reports accuracy vs epoch for the image and sequence stand-ins
// under BSP data parallelism and PipeDream with weight stashing.
func fig11(quick bool) ([]*Table, error) {
	epochs := 12
	if quick {
		epochs = 6
	}
	var tables []*Table
	for _, c := range []struct {
		name string
		cfg  statseff.Config
	}{
		{"(a) GNMT-16 stand-in (LSTM seq2seq)", seqStandInConfig(epochs)},
		{"(b) VGG-16 stand-in (classifier)", standInConfig(epochs)},
	} {
		bsp, err := statseff.TrainBSP(c.cfg, 3)
		if err != nil {
			return nil, err
		}
		plan, err := straightPlanLayers(5, 3)
		if err != nil {
			return nil, err
		}
		pd, err := statseff.TrainPipeline(c.cfg, plan, pipeline.WeightStashing)
		if err != nil {
			return nil, err
		}
		t := &Table{ID: "fig11", Title: "Accuracy vs epoch — " + c.name,
			Header: []string{"epoch", "BSP-DP accuracy", "PipeDream accuracy"}}
		for e := 0; e < epochs; e++ {
			t.AddRow(fmt.Sprintf("%d", e+1), pct(bsp.Score[e]), pct(pd.Score[e]))
		}
		d := pd.Final() - bsp.Final()
		t.AddNote("final-accuracy difference (PipeDream - BSP): %+.3f", d)
		t.AddNote("paper shape: the curves coincide — weight stashing preserves statistical efficiency")
		if d < -0.15 {
			return nil, fmt.Errorf("fig11 %s: stashing lost %.3f accuracy vs BSP", c.name, -d)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// fig13 trains the classifier stand-in with LARS at growing global batch
// sizes; very large batches fail to reach the target accuracy.
func fig13(quick bool) ([]*Table, error) {
	epochs := 16
	if quick {
		epochs = 8
	}
	const target = 0.85
	samplesPerEpoch := 16 * 40
	t := &Table{ID: "fig13", Title: "LARS with large minibatches (classifier stand-in)",
		Header: []string{"global batch", "final accuracy", "epochs to target (85%)"}}
	for _, batch := range []int{16, 64, 160, 320} {
		workers := batch / 16 // stand-in per-worker batch is 16
		cfg := statseff.Config{
			Factory:      standInConfig(1).Factory,
			Train:        data.NewSpiral(103, 3, 16, samplesPerEpoch/16),
			Eval:         data.NewSpiral(107, 3, 32, 8),
			NewOptimizer: func() nn.Optimizer { return nn.NewLARS(0.5, 0.9, 1e-4, 0.02) },
			Loss:         nn.SoftmaxCrossEntropy,
			Epochs:       epochs,
		}
		curve, err := statseff.TrainBSP(cfg, workers)
		if err != nil {
			return nil, err
		}
		ett := "never"
		if e := curve.EpochsToTarget(target); e > 0 {
			ett = fmt.Sprintf("%d", e)
		}
		t.AddRow(fmt.Sprintf("%d", batch), pct(curve.Final()), ett)
	}
	t.AddNote("paper shape: moderate batches reach target fastest; the largest batches fail to")
	t.AddNote("converge to the target at all, so LARS does not generalize DP out of its problem")
	return []*Table{t}, nil
}

// expASP contrasts ASP's perfect hardware efficiency with its statistical
// inefficiency (§5.2's ASP comparison).
func expASP(quick bool) ([]*Table, error) {
	epochs := 12
	if quick {
		epochs = 6
	}
	cfg := standInConfig(epochs)
	bsp, err := statseff.TrainBSP(cfg, 4)
	if err != nil {
		return nil, err
	}
	asp, err := statseff.TrainASP(cfg, 4)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "asp", Title: "BSP vs ASP convergence (4 workers)",
		Header: []string{"epoch", "BSP accuracy", "ASP accuracy"}}
	for e := 0; e < epochs; e++ {
		t.AddRow(fmt.Sprintf("%d", e+1), pct(bsp.Score[e]), pct(asp.Score[e]))
	}
	t.AddNote("ASP removes every synchronization stall but pays for it in statistical efficiency")
	t.AddNote("(paper: ASP took 7.4x longer than PipeDream to approach a 48%% VGG-16 accuracy)")
	return []*Table{t}, nil
}

// ablStash compares weight stashing with naive no-stashing pipelining on
// the same plan — the core §3.3 ablation.
func ablStash(quick bool) ([]*Table, error) {
	epochs := 12
	if quick {
		epochs = 6
	}
	// A deep pipeline widens the weight discrepancy between forward and
	// backward passes: stage s sees 4−s updates in between. The stand-in is
	// too shallow for that to show in the loss — only fc2's input gradient
	// reads a stale weight — so the gap below is within seed noise: over 60
	// initialisations at lr 0.4 (where both runs diverge) naive
	// ended with the higher loss in 31–34, at 0.05–0.2 in 8–12 of 20.
	cfg := standInConfig(epochs)
	plan, err := straightPlanLayers(5, 5)
	if err != nil {
		return nil, err
	}
	stash, err := statseff.TrainPipeline(cfg, plan, pipeline.WeightStashing)
	if err != nil {
		return nil, err
	}
	naive, err := statseff.TrainPipeline(cfg, plan, pipeline.NoStashing)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "abl-stash", Title: "Ablation: weight stashing vs naive pipelining (5-stage pipeline)",
		Header: []string{"epoch", "stashing acc", "naive acc", "stashing loss", "naive loss"}}
	for e := 0; e < epochs; e++ {
		t.AddRow(fmt.Sprintf("%d", e+1), pct(stash.Score[e]), pct(naive.Score[e]),
			fmt.Sprintf("%.4f", stash.TrainLoss[e]), fmt.Sprintf("%.4f", naive.TrainLoss[e]))
	}
	t.AddNote("without stashing, backward passes use weights from different versions than the")
	t.AddNote("forward pass — gradients are invalid and convergence degrades (paper §3.3); on this")
	t.AddNote("5-layer stand-in the loss gap is within seed noise (see EXPERIMENTS.md)")
	return []*Table{t}, nil
}

// ablVSync compares vertical sync with plain weight stashing.
func ablVSync(quick bool) ([]*Table, error) {
	epochs := 10
	if quick {
		epochs = 5
	}
	cfg := standInConfig(epochs)
	plan, err := straightPlanLayers(5, 3)
	if err != nil {
		return nil, err
	}
	stash, err := statseff.TrainPipeline(cfg, plan, pipeline.WeightStashing)
	if err != nil {
		return nil, err
	}
	vsync, err := statseff.TrainPipeline(cfg, plan, pipeline.VerticalSync)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "abl-vsync", Title: "Ablation: vertical sync vs weight stashing (3-stage pipeline)",
		Header: []string{"epoch", "weight stashing", "vertical sync"}}
	for e := 0; e < epochs; e++ {
		t.AddRow(fmt.Sprintf("%d", e+1), pct(stash.Score[e]), pct(vsync.Score[e]))
	}
	t.AddNote("vertical sync eliminates cross-stage version inconsistency at the cost of extra")
	t.AddNote("metadata — and of running every stage at the input stage's full delay, which on this")
	t.AddNote("stand-in converges slower than stashing alone; the paper's default excludes it")
	return []*Table{t}, nil
}

// ablRepl quantifies what stage replication buys the optimizer: best plan
// with replication vs best straight pipeline.
func ablRepl(quick bool) ([]*Table, error) {
	t := &Table{ID: "abl-repl", Title: "Ablation: optimizer with vs without stage replication",
		Header: []string{"model", "topology", "straight-only (samples/s)", "with replication (samples/s)", "gain"}}
	for _, m := range []string{"VGG-16", "AlexNet", "GNMT-16"} {
		topo := topology.ClusterA(4)
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		straightPlan, err := partition.ModelParallel(prof, topo)
		if err != nil {
			return nil, err
		}
		best, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
		if err != nil {
			return nil, err
		}
		straight := t.price(m+" straight", prof, topo, straightPlan)
		repl := t.price(m+" with replication", prof, topo, best)
		t.AddRow(m, topo.Name, f1(straight), f1(repl), f2(repl/straight)+"x")
	}
	t.AddNote("replication rescues models whose layers do not divide evenly across workers")
	return []*Table{t}, nil
}

// ablTopo quantifies topology awareness: the optimizer run on the true
// hierarchy vs on a flat topology at the slowest bandwidth, both plans
// priced on the true hierarchy.
func ablTopo(quick bool) ([]*Table, error) {
	t := &Table{ID: "abl-topo", Title: "Ablation: topology-aware vs flat (bottleneck-bandwidth) optimizer",
		Header: []string{"model", "flat plan", "aware plan", "flat (samples/s)", "aware (samples/s)"}}
	for _, m := range []string{"VGG-16", "GNMT-16"} {
		topo := topology.ClusterA(4)
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		flat := topology.Flat(topo.TotalWorkers(), topo.SlowestBandwidth(), topo.Device)
		flatPlan, err := partition.NewPlan(prof, flat, partition.PlanOptions{})
		if err != nil {
			return nil, err
		}
		// The flat plan's stages, run on the REAL cluster.
		flatPlan, err = partition.NewPlan(prof, topo, partition.PlanOptions{Stages: flatPlan.Stages})
		if err != nil {
			return nil, err
		}
		awarePlan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
		if err != nil {
			return nil, err
		}
		t.AddRow(m, flatPlan.ConfigString(), awarePlan.ConfigString(),
			f1(t.price(m+" flat", prof, topo, flatPlan)), f1(t.price(m+" aware", prof, topo, awarePlan)))
	}
	t.AddNote("the hierarchy-aware optimizer places heavy sync traffic on fast intra-server links")
	return []*Table{t}, nil
}
