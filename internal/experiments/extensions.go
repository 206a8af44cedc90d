package experiments

import (
	"fmt"
	"slices"

	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/topology"
)

func init() {
	register("abl-recompute", "Ablation: activation recomputation — memory saved vs throughput lost (§3.3)", ablRecompute)
	register("abl-memory", "Memory-constrained planning: depth reduction on small-memory devices (§3.1)", ablMemory)
}

// ablRecompute quantifies the §3.3 memory-reduction technique the paper
// lists (and GPipe uses): discard activation stashes and recompute them
// in the backward pass. The recompute column prices the same stages on
// the recomputed profile, and each stage's stash at its stage input.
func ablRecompute(bool) ([]*Table, error) {
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
		rec := recomputed(prof)
		recPlan, err := partition.NewPlan(rec, topo, partition.PlanOptions{Stages: plan.Stages})
		if err != nil {
			return nil, err
		}
		plain, recTput := t.price(m, prof, topo, plan), t.price(m+" recompute", rec, topo, recPlan)
		plainMem, recMem := slices.Max(t.memory(m, prof, topo, plan)), int64(0)
		for s, window := range recPlan.Windows() {
			st := recPlan.Stages[s]
			recMem = max(recMem, partition.WorkerMemory(prof, st, (window+st.Replicas-1)/st.Replicas, false, true))
		}
		t.AddRow(m, f1(plain), f1(recTput), mb(plainMem), mb(recMem))
		if recTput > plain || recMem > plainMem {
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
