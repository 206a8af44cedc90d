package experiments

import (
	"fmt"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

func init() {
	register("abl-straggler", "Extension: sensitivity of 1F1B-RR to heterogeneous/straggler workers", ablStraggler)
}

// ablStraggler quantifies a limitation outside the paper's homogeneous
// assumptions: since 1F1B-RR is a static schedule (the property that makes
// it coordination-free, §3.2), a slow worker is never routed around — a
// straight pipeline slows by the straggler's full factor. It simulates the
// plan made for nominal workers on a profile whose stage-2 layers run
// slower, so the schedule keeps the nominal windows; priced at those
// windows, the 1.25x row reads 2 % high, since the price does not queue
// transfers on a link in FIFO order as the simulator does.
func ablStraggler(quick bool) ([]*Table, error) {
	minibatches := 240
	if quick {
		minibatches = 96
	}
	topo := topology.ClusterA(1)
	prof := modelzoo.GNMT8(topo.Device, 64)
	plan, err := partition.ModelParallel(prof, topo) // straight 4-stage
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "abl-straggler", Title: "Straggler sensitivity: GNMT-8 straight 4-stage pipeline (Cluster-A server)",
		Header: []string{"straggler factor", "throughput (samples/s)", "slowdown vs nominal"}}
	var nominal float64
	stage := plan.Stages[2] // slow worker 2 (a middle stage)
	for _, factor := range []float64{1.0, 1.25, 1.5, 2.0, 3.0} {
		slow := editLayers(prof, stage.FirstLayer, stage.LastLayer, func(l *profile.LayerProfile) {
			l.FwdTime, l.BwdTime, l.BwdParamTime = l.FwdTime*factor, l.BwdTime*factor, l.BwdParamTime*factor
		})
		res, err := cluster.Simulate(cluster.Config{
			Profile: slow, Topo: topo, Plan: plan,
			Policy: schedule.PipeDream1F1B, Minibatches: minibatches,
		})
		if err != nil {
			return nil, err
		}
		if factor == 1.0 {
			nominal = res.Throughput
		}
		t.AddRow(fmt.Sprintf("%.2fx", factor), f1(res.Throughput), f2(nominal/res.Throughput)+"x")
	}
	t.AddNote("the static 1F1B-RR schedule pins work to workers, so pipeline throughput tracks the")
	t.AddNote("slowest worker almost linearly — heterogeneity-aware partitioning (give the straggler")
	t.AddNote("fewer layers) is the natural extension, and the profiler/optimizer split makes it possible")
	return []*Table{t}, nil
}
