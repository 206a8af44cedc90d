package experiments

import (
	"fmt"
	"slices"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

func init() {
	register("abl-recompute", "Ablation: activation recomputation — memory saved vs throughput lost (§3.3)", ablRecompute)
	register("abl-memory", "Memory-constrained planning: depth reduction on small-memory devices (§3.1)", ablMemory)
}

// ablRecompute quantifies the §3.3 memory-reduction technique the paper
// lists (and GPipe uses): discard activation stashes and recompute them
// in the backward pass.
func ablRecompute(quick bool) ([]*Table, error) {
	minibatches := 160
	if quick {
		minibatches = 64
	}
	t := &Table{ID: "abl-recompute", Title: "Activation recomputation: throughput vs worst-stage memory",
		Header: []string{"model", "throughput (plain)", "throughput (recompute)", "memory (plain)", "memory (recompute)"}}
	topo := topology.ClusterA(1)
	for _, m := range []string{"VGG-16", "GNMT-8"} {
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		plan, err := partition.ModelParallel(prof, topo)
		if err != nil {
			return nil, err
		}
		run := func(recompute bool) (*cluster.Result, error) {
			return cluster.Simulate(cluster.Config{
				Profile: prof, Topo: topo, Plan: plan,
				Policy: schedule.PipeDream1F1B, Minibatches: minibatches,
				Recompute: recompute,
			})
		}
		plain, err := run(false)
		if err != nil {
			return nil, err
		}
		rec, err := run(true)
		if err != nil {
			return nil, err
		}
		worst := func(r *cluster.Result) int64 {
			var w int64
			for _, m := range r.PeakMemory {
				if m > w {
					w = m
				}
			}
			return w
		}
		t.AddRow(m, f1(plain.Throughput), f1(rec.Throughput), mb(worst(plain)), mb(worst(rec)))
		if rec.Throughput > plain.Throughput || worst(rec) > worst(plain) {
			return nil, fmt.Errorf("abl-recompute %s: trade-off inverted", m)
		}
	}
	t.AddNote("recomputation re-runs each stage's forward during backward: ~1/3 more compute")
	t.AddNote("per minibatch buys a large activation-memory reduction (the GPipe trade, §3.3)")
	return []*Table{t}, nil
}

// ablMemory exercises the optimizer's device-memory constraint: a
// small-memory device forces a reduced pipeline depth, trading throughput
// for footprint (the Figure 18 lever, applied automatically).
func ablMemory(quick bool) ([]*Table, error) {
	t := &Table{ID: "abl-memory", Title: "Memory-constrained planning (GNMT-16, 4 workers, Cluster-A server)",
		Header: []string{"device memory", "depth chosen", "throughput (samples/s)", "worst-stage memory"}}
	prof := modelzoo.GNMT16(topology.V100, 64)
	for _, memMB := range []int64{16384, 1400, 1100, 900} {
		dev := topology.Device{Name: fmt.Sprintf("%dMB", memMB),
			EffectiveFLOPS: topology.V100.EffectiveFLOPS, MemBytes: memMB << 20}
		base := topology.ClusterA(1)
		topo := &topology.Topology{Name: dev.Name, Device: dev, Levels: base.Levels}
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Memory: true})
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%d MB", memMB)
		t.AddRow(row, fmt.Sprintf("%d", plan.Depth), f1(t.price(row, prof, topo, plan)),
			mb(slices.Max(t.memory(row, prof, topo, plan))))
	}
	t.AddNote("the optimizer takes device memory capacity as input (§3.1); when its windows do")
	t.AddNote("not fit, it reduces depth — less overlap, smaller stashes (Figure 18)")
	return []*Table{t}, nil
}
