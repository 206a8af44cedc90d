package experiments

import (
	"fmt"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

func init() {
	register("fig1", "Communication overhead of data-parallel training vs #GPUs (3 server types, 5 models)", fig1)
	register("fig12", "GNMT-8 data-parallel communication overhead: fp16 vs fp32", fig12)
	register("fig17", "Bytes communicated per training sample: DP vs best non-DP config (4 GPUs, Cluster-A)", fig17)
	register("tbl3", "Per-epoch slowdown of DP on public cloud vs dedicated MLPerf-style cluster", tbl3)
}

// fig1 models the paper's Figure 1: the fraction of each data-parallel
// iteration spent stalled on communication, weak-scaling from 1 GPU to 32,
// on the three server types.
func fig1(quick bool) ([]*Table, error) {
	models := []string{"VGG-16", "ResNet-50", "AlexNet", "GNMT-8", "AWD-LM"}
	gpuCounts := []int{1, 2, 4, 8, 16, 32}
	if quick {
		gpuCounts = []int{4, 16, 32}
	}
	panels := []struct {
		name string
		topo func(workers int) *topology.Topology
	}{
		{"(a) 8x1080Ti/server, PCIe, 25Gbps", func(n int) *topology.Topology {
			return topology.Fig1Private(ceilDiv(n, 8))
		}},
		{"(b) 4xV100/server, PCIe, 10Gbps (Cluster-A)", func(n int) *topology.Topology {
			return topology.ClusterA(ceilDiv(n, 4))
		}},
		{"(c) 8xV100/server, NVLink, 25Gbps (Cluster-B)", func(n int) *topology.Topology {
			return topology.ClusterB(ceilDiv(n, 8))
		}},
	}
	var tables []*Table
	for _, panel := range panels {
		t := &Table{ID: "fig1", Title: "DP communication overhead — " + panel.name}
		t.Header = append([]string{"model"}, intsToHeader(gpuCounts)...)
		for _, m := range models {
			row := []string{m}
			for _, n := range gpuCounts {
				topo := panel.topo(n)
				prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
				if err != nil {
					return nil, err
				}
				dp, err := dpPlan(prof, topo, n)
				if err != nil {
					return nil, err
				}
				row = append(row, pct(cluster.SyncStall(prof, dp)))
			}
			t.AddRow(row...)
		}
		t.AddNote("paper shape: overhead grows with GPU count, spikes when crossing the server boundary,")
		t.AddNote("ResNet-50 stays low (compact conv weights) while VGG/AlexNet/GNMT/AWD-LM reach 50-90%%")
		tables = append(tables, t)
	}
	return tables, nil
}

// fig12 compares fp32 with fp16: halving both compute time and bytes
// moved; the overhead fraction rises because compute shrinks as fast as
// communication but overlap headroom disappears.
func fig12(quick bool) ([]*Table, error) {
	gpuCounts := []int{1, 2, 4, 8, 16, 32}
	if quick {
		gpuCounts = []int{8, 32}
	}
	t := &Table{ID: "fig12", Title: "GNMT-8 DP communication overhead, fp32 vs fp16 (Cluster-B style servers)"}
	t.Header = append([]string{"precision"}, intsToHeader(gpuCounts)...)
	for _, prec := range []string{"fp32", "fp16"} {
		row := []string{prec}
		for _, n := range gpuCounts {
			topo := topology.ClusterB(ceilDiv(n, 8))
			prof := modelzoo.GNMT8(topo.Device, 64)
			if prec == "fp16" {
				prof = halvePrecision(prof)
			}
			dp, err := dpPlan(prof, topo, n)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(cluster.SyncStall(prof, dp)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: mixed precision has equal or higher communication overhead than fp32,")
	t.AddNote("so pipeline-parallel speedups carry over (or improve) with fp16")
	return []*Table{t}, nil
}

// halvePrecision converts a profile to fp16/tensor-core execution: bytes
// halve, while compute shrinks ~3x (tensor cores accelerate math far more
// than the network accelerates transfers — the imbalance Figure 12 shows).
func halvePrecision(p *profile.ModelProfile) *profile.ModelProfile {
	q := editLayers(p, 0, p.NumLayers()-1, func(l *profile.LayerProfile) {
		l.FwdTime, l.BwdTime, l.BwdParamTime = l.FwdTime/3, l.BwdTime/3, l.BwdParamTime/3
		l.ActivationBytes, l.WeightBytes = l.ActivationBytes/2, l.WeightBytes/2
	})
	q.Model, q.InputBytes = p.Model+"-fp16", p.InputBytes/2
	return q
}

// fig17 reports per-sample communication of the optimizer's best non-DP
// configuration against data parallelism on 4 workers of Cluster-A.
func fig17(quick bool) ([]*Table, error) {
	t := &Table{ID: "fig17", Title: "Bytes communicated per training sample (4 GPUs, Cluster-A)",
		Header: []string{"model", "DP (B/sample)", "best non-DP (B/sample)", "non-DP / DP"}}
	topo := topology.ClusterA(1)
	for _, m := range []string{"GNMT-8", "GNMT-16", "VGG-16", "ResNet-50", "AWD-LM"} {
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		dp, err := dpPlan(prof, topo, topo.TotalWorkers())
		if err != nil {
			return nil, err
		}
		dpBytes := cluster.PipelineBytesPerSample(prof, dp.Stages)
		best, err := bestNonDPPlan(prof, topo)
		if err != nil {
			return nil, err
		}
		pdBytes := cluster.PipelineBytesPerSample(prof, best.Stages)
		t.AddRow(m, fmt.Sprintf("%.0f", dpBytes), fmt.Sprintf("%.0f", pdBytes), f2(pdBytes/dpBytes))
	}
	t.AddNote("paper shape: ≥85%% communication reduction for VGG-16, AWD-LM, and GNMT;")
	t.AddNote("ResNet-50's best non-DP config communicates MORE than DP, which is why its optimizer picks DP")
	return []*Table{t}, nil
}

// bestNonDPPlan returns the best plan that is not pure data parallelism,
// searching stage splits with the same cost model as the optimizer.
func bestNonDPPlan(prof *profile.ModelProfile, topo *topology.Topology) (*partition.Plan, error) {
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
	if err != nil {
		return nil, err
	}
	if !plan.IsDataParallel() {
		return plan, nil
	}
	// Optimizer picked DP (e.g. ResNet-50): find the best split into two
	// stages instead.
	n := prof.NumLayers()
	workers := topo.TotalWorkers()
	var best *partition.Plan
	for s := 0; s < n-1; s++ {
		for r := 1; r < workers; r++ {
			cand, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
				{FirstLayer: 0, LastLayer: s, Replicas: r},
				{FirstLayer: s + 1, LastLayer: n - 1, Replicas: workers - r},
			}})
			if err != nil {
				continue
			}
			if best == nil || cand.BottleneckTime < best.BottleneckTime {
				best = cand
			}
		}
	}
	if best == nil {
		return plan, nil
	}
	return best, nil
}

// tbl3 models Table 3: the same DP training is 2-3.3x slower per epoch on
// public-cloud interconnects than on the dedicated clusters used by
// official MLPerf entries.
func tbl3(quick bool) ([]*Table, error) {
	t := &Table{ID: "tbl3", Title: "DP per-epoch slowdown: public cloud (25Gbps) vs dedicated cluster (100Gbps)",
		Header: []string{"model", "#V100s", "cloud/dedicated", "paper"}}
	// Per-GPU batch sizes follow MLPerf v0.5-style training recipes
	// (detection models train with small per-GPU batches).
	cases := []struct {
		model string
		gpus  int
		batch int
		paper string
	}{
		{"GNMT-8", 256, 32, "1.94x"},
		{"SSD", 64, modelzoo.PaperBatchSize("SSD"), "3.29x"},
		{"Mask-R-CNN", 64, modelzoo.PaperBatchSize("Mask-R-CNN"), "2.32x"},
	}
	for _, c := range cases {
		ded := topology.Dedicated(c.gpus / 8)
		cloud := topology.ClusterB(c.gpus / 8)
		prof, err := modelzoo.ByName(c.model, topology.V100, c.batch)
		if err != nil {
			return nil, err
		}
		dpDed, err := dpPlan(prof, ded, c.gpus)
		if err != nil {
			return nil, err
		}
		dpCloud, err := dpPlan(prof, cloud, c.gpus)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.model, fmt.Sprintf("%d", c.gpus), f2(dpCloud.StageTimes[0]/dpDed.StageTimes[0])+"x", c.paper)
	}
	t.AddNote("paper shape: slower cloud links make multi-server all_reduce 2-3.3x slower per epoch")
	return []*Table{t}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func intsToHeader(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%d GPUs", n)
	}
	return out
}
