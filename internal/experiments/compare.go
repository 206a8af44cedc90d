package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

func init() {
	register("fig14a", "PipeDream vs model parallelism (4 GPUs, Cluster-A)", fig14a)
	register("fig14b", "Pipelining added on top of hybrid parallelism (4 GPUs, Cluster-A)", fig14b)
	register("sec54", "PipeDream vs GPipe on GNMT-16 (16 workers)", sec54)
	register("fig15", "Optimizer-predicted vs simulated throughput for VGG-16 configurations (16 workers)", fig15)
	register("fig16", "Per-stage memory footprint vs data parallelism (4 workers)", fig16)
	register("fig18", "Effect of pipeline depth on throughput and memory (GNMT-8, 4 V100s)", fig18)
	register("opt", "Optimizer runtime for every model and cluster (paper bound: < 8 s)", expOpt)
}

// recomputed is prof under activation recomputation (§3.3), as the real
// GPipe trades compute for memory (§2.2): each layer's backward re-runs
// its forward.
func recomputed(prof *profile.ModelProfile) *profile.ModelProfile {
	return editLayers(prof, 0, prof.NumLayers()-1, func(l *profile.LayerProfile) { l.BwdTime += l.FwdTime })
}

// editLayers returns a copy of prof with edit applied to layers [first,
// last]. The copy is a fresh profile: a profile caches its prefix sums
// keyed only by its layer count, so a struct copy would read prof's.
func editLayers(prof *profile.ModelProfile, first, last int, edit func(*profile.LayerProfile)) *profile.ModelProfile {
	q := &profile.ModelProfile{Model: prof.Model, MinibatchSize: prof.MinibatchSize, InputBytes: prof.InputBytes,
		Parallelism: prof.Parallelism, Layers: slices.Clone(prof.Layers)}
	for l := first; l <= last; l++ {
		edit(&q.Layers[l])
	}
	return q
}

// fig14a compares model parallelism, a straight pipeline, and PipeDream's
// chosen configuration for four models on one Cluster-A server.
func fig14a(bool) ([]*Table, error) {
	topo := topology.ClusterA(1)
	t := &Table{ID: "fig14a", Title: "Speedup over model parallelism (4 GPUs, Cluster-A)",
		Header: []string{"model", "model-parallel", "straight pipeline", "PipeDream (w/ replication)"}}
	for _, m := range []string{"VGG-16", "AlexNet", "GNMT-8", "GNMT-16"} {
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		mpPlan, err := partition.ModelParallel(prof, topo)
		if err != nil {
			return nil, err
		}
		mp := t.price(m+" model-parallel", prof, topo, mpPlan.AtDepth(1))
		best, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
		if err != nil {
			return nil, err
		}
		straight, pd := t.price(m+" straight", prof, topo, mpPlan), t.price(m+" PipeDream", prof, topo, best)
		t.AddRow(m, "1.00x", f2(straight/mp)+"x", f2(pd/mp)+"x")
	}
	t.AddNote("paper shape: pipelining alone gives ≥2x over model parallelism for every model;")
	t.AddNote("replication lifts VGG-16/AlexNet much further (paper: 14.9x / 6.5x)")
	return []*Table{t}, nil
}

// fig14b shows the value of pipelining on top of a hybrid (model+data
// parallel) partition: the same plan run with one minibatch in flight
// versus the full 1F1B pipeline.
func fig14b(bool) ([]*Table, error) {
	topo := topology.ClusterA(1)
	t := &Table{ID: "fig14b", Title: "Hybrid parallelism with and without pipelining (4 GPUs, Cluster-A)",
		Header: []string{"model", "hybrid (no pipelining)", "hybrid + pipelining", "gain"}}
	for _, m := range []string{"VGG-16", "AlexNet", "GNMT-8", "GNMT-16"} {
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
		if err != nil {
			return nil, err
		}
		if plan.IsDataParallel() {
			// Hybrid needs at least two stages; use the best 2-way split.
			plan, err = bestNonDPPlan(prof, topo)
			if err != nil {
				return nil, err
			}
		}
		noPipe, pipe := t.price(m+" unpipelined", prof, topo, plan.AtDepth(1)), t.price(m, prof, topo, plan)
		t.AddRow(m, f1(noPipe)+" samples/s", f1(pipe)+" samples/s", f2(pipe/noPipe)+"x")
	}
	t.AddNote("paper shape: pipelining increases hybrid-parallel throughput by up to ~80%%")
	return []*Table{t}, nil
}

// sec54 compares PipeDream's 1F1B with GPipe's microbatch-flush pipeline
// on GNMT-16 with 16 workers, using the same partitions (as the paper
// does, since GPipe provides no partitioner).
func sec54(bool) ([]*Table, error) {
	t := &Table{ID: "sec54", Title: "GPipe slowdown vs PipeDream, GNMT-16, 16 workers",
		Header: []string{"cluster", "GPipe depth", "slowdown vs 1F1B", "paper"}}
	for _, c := range []struct {
		name  string
		topo  *topology.Topology
		paper [2]string
	}{
		{"Cluster-A (4x4)", topology.ClusterA(4), [2]string{"55%", "35%"}},
		{"Cluster-B (2x8)", topology.ClusterB(2), [2]string{"71%", "42%"}},
	} {
		prof := modelzoo.GNMT16(c.topo.Device, 64)
		// Same partition for both systems: balanced straight pipeline.
		plan, err := partition.ModelParallel(prof, c.topo)
		if err != nil {
			return nil, err
		}
		pd := t.price(c.name, prof, c.topo, plan)
		// GPipe recomputes activations, as the real GPipe does, at the
		// paper's m = NOAM microbatches and at the most that fit in memory.
		rec := recomputed(prof)
		gpipe, err := partition.NewPlan(rec, c.topo, partition.PlanOptions{Stages: plan.Stages})
		if err != nil {
			return nil, err
		}
		slow := func(depth int) string {
			return pct(1 - t.gpipe(fmt.Sprintf("%s GPipe depth %d", c.name, depth), rec, c.topo, gpipe.AtDepth(depth))/pd)
		}
		noam := partition.Noam(plan.Workers, plan.Stages[0].Replicas)
		maxDepth := maxGPipeDepth(prof, plan, c.topo.Device.MemBytes)
		t.AddRow(c.name, fmt.Sprintf("NOAM (%d)", noam), slow(noam), c.paper[0])
		t.AddRow(c.name, fmt.Sprintf("max-memory (%d)", maxDepth), slow(maxDepth), c.paper[1])
	}
	t.AddNote("paper shape: GPipe's pipeline flushes plus activation recomputation cost")
	t.AddNote("35-71%% throughput vs 1F1B; deeper pipelines amortize flushes but pay recompute")
	return []*Table{t}, nil
}

// maxGPipeDepth is the largest microbatch count, from 2 to 64, at which
// every stage's GPipe price (with recomputation, as sec54 prices it)
// fits in device memory.
func maxGPipeDepth(prof *profile.ModelProfile, plan *partition.Plan, mem int64) int {
	fits := func(m int) bool {
		for _, st := range plan.Stages {
			if partition.WorkerMemory(prof, st, (m+st.Replicas-1)/st.Replicas, true, true) > mem {
				return false
			}
		}
		return true
	}
	d := 2
	for d < 64 && fits(d+1) {
		d++
	}
	return d
}

// fig15 compares the optimizer's predicted throughput against simulated
// throughput for a sweep of VGG-16 configurations on 16 workers.
func fig15(quick bool) ([]*Table, error) {
	minibatches := 256
	if quick {
		minibatches = 96
	}
	topo := topology.ClusterA(4)
	prof := modelzoo.VGG16(topo.Device, 64)
	t := &Table{ID: "fig15", Title: "Predicted vs simulated throughput, VGG-16, 16 workers (Cluster-A)",
		Header: []string{"config", "predicted (samples/s)", "simulated (samples/s)"}}
	var xs, ys []float64
	bestPred, bestSim := "", ""
	var bestPredV, bestSimV float64
	for _, c := range fig15Configs(prof.NumLayers()) {
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: c.specs})
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", c.name, err)
		}
		// The simulated column referees the price (Fig. 15's point).
		res, err := cluster.Simulate(cluster.Config{Profile: prof, Topo: topo, Plan: plan,
			Policy: schedule.PipeDream1F1B, Minibatches: minibatches})
		if err != nil {
			return nil, err
		}
		pred := t.price(c.name, prof, topo, plan)
		t.AddRow(c.name, f1(pred), f1(res.Throughput))
		xs = append(xs, pred)
		ys = append(ys, res.Throughput)
		if pred > bestPredV {
			bestPredV, bestPred = pred, c.name
		}
		if res.Throughput > bestSimV {
			bestSimV, bestSim = res.Throughput, c.name
		}
	}
	r := pearson(xs, ys)
	t.AddNote("Pearson correlation predicted vs simulated: r = %.3f (paper: strongly linear)", r)
	t.AddNote("best predicted config: %s; best simulated config: %s", bestPred, bestSim)
	if r < 0.8 {
		return nil, fmt.Errorf("fig15: correlation %.3f too weak — cost model and simulator diverged", r)
	}
	return []*Table{t}, nil
}

// fig15Config is one of Figure 15's hand-picked VGG-16 configurations.
type fig15Config struct {
	name  string
	specs []partition.StageSpec
}

// fig15Configs returns Figure 15's configurations of an n-layer VGG-16
// on 16 workers.
func fig15Configs(n int) []fig15Config {
	return []fig15Config{
		{"DP-16", []partition.StageSpec{{FirstLayer: 0, LastLayer: n - 1, Replicas: 16}}},
		{"15-1", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: n - 4, Replicas: 15},
			{FirstLayer: n - 3, LastLayer: n - 1, Replicas: 1}}},
		{"14-2", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: n - 4, Replicas: 14},
			{FirstLayer: n - 3, LastLayer: n - 1, Replicas: 2}}},
		{"8-8", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 9, Replicas: 8},
			{FirstLayer: 10, LastLayer: n - 1, Replicas: 8}}},
		{"12-3-1", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 13, Replicas: 12},
			{FirstLayer: 14, LastLayer: 16, Replicas: 3},
			{FirstLayer: 17, LastLayer: n - 1, Replicas: 1}}},
		{"4-4-4-4", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 7, Replicas: 4},
			{FirstLayer: 8, LastLayer: 11, Replicas: 4},
			{FirstLayer: 12, LastLayer: 15, Replicas: 4},
			{FirstLayer: 16, LastLayer: n - 1, Replicas: 4}}},
		{"straight-ish", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 5, Replicas: 8},
			{FirstLayer: 6, LastLayer: 9, Replicas: 4},
			{FirstLayer: 10, LastLayer: 13, Replicas: 2},
			{FirstLayer: 14, LastLayer: 16, Replicas: 1},
			{FirstLayer: 17, LastLayer: n - 1, Replicas: 1}}},
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// fig16 reports the per-stage peak memory of 4-stage straight pipelines
// against the per-worker footprint of data parallelism.
func fig16(quick bool) ([]*Table, error) {
	t := &Table{ID: "fig16", Title: "Memory footprint: 4-stage pipeline vs data parallelism (4 workers)",
		Header: []string{"model", "DP per-worker", "stage 0", "stage 1", "stage 2", "stage 3", "worst/DP"}}
	topo := topology.ClusterA(1)
	for _, m := range []string{"VGG-16", "GNMT-8", "GNMT-16"} {
		prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
		if err != nil {
			return nil, err
		}
		plan, err := partition.ModelParallel(prof, topo)
		if err != nil {
			return nil, err
		}
		dp, err := partition.DataParallel(prof, topo)
		if err != nil {
			return nil, err
		}
		dpMem := partition.StageMemory(dp, prof)[0]
		row := []string{m, mb(dpMem)}
		stages := t.memory(m, prof, topo, plan)
		for _, mem := range stages {
			row = append(row, mb(mem))
		}
		row = append(row, f2(float64(slices.Max(stages))/float64(dpMem)))
		t.AddRow(row...)
	}
	t.AddNote("paper shape: despite stashing multiple weight/activation versions, PipeDream's")
	t.AddNote("worst stage stays on par with data parallelism for the LSTM models; VGG-16's")
	t.AddNote("activation-heavy conv front exceeds DP under a compute-balanced 4-way split")
	return []*Table{t}, nil
}

// fig18 sweeps the pipeline depth for GNMT-8 on 4 workers, reporting
// throughput and worst-stage memory.
func fig18(quick bool) ([]*Table, error) {
	topo := topology.ClusterA(1)
	prof := modelzoo.GNMT8(topo.Device, 64)
	plan, err := partition.ModelParallel(prof, topo)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig18", Title: "Effect of pipeline depth, GNMT-8, 4 V100s (NOAM = 4)",
		Header: []string{"depth", "throughput (samples/s)", "peak stage-0 memory", "peak stage-3 memory"}}
	var prevT float64
	for depth := 1; depth <= 7; depth++ {
		atDepth := plan.AtDepth(depth)
		row := fmt.Sprintf("depth %d", depth)
		tput, mem := t.price(row, prof, topo, atDepth), t.memory(row, prof, topo, atDepth)
		t.AddRow(fmt.Sprintf("%d", depth), f1(tput), mb(mem[0]), mb(mem[len(mem)-1]))
		if depth > 1 && tput+1e-9 < prevT*0.95 {
			return nil, fmt.Errorf("fig18: throughput regressed at depth %d", depth)
		}
		prevT = tput
	}
	t.AddNote("paper shape: memory grows with depth (more stashed versions); throughput")
	t.AddNote("rises until ~NOAM then plateaus — extra depth only costs memory")
	return []*Table{t}, nil
}

// expOpt times the partitioner on every model and cluster.
func expOpt(quick bool) ([]*Table, error) {
	t := &Table{ID: "opt", Title: "Optimizer runtime (paper: < 8 s for all models)",
		Header: []string{"model", "topology", "layers", "runtime"}}
	topos := []*topology.Topology{topology.ClusterA(4), topology.ClusterB(2), topology.ClusterC(4)}
	for _, m := range modelzoo.Names() {
		for _, topo := range topos {
			prof, err := modelzoo.ByName(m, topo.Device, modelzoo.PaperBatchSize(m))
			if err != nil {
				return nil, err
			}
			// The median of a few calls: one call in a process that has
			// run every other experiment reads several times its usual.
			var runs []time.Duration
			for range 5 {
				t0 := time.Now()
				if _, err := partition.NewPlan(prof, topo, partition.PlanOptions{}); err != nil {
					return nil, err
				}
				runs = append(runs, time.Since(t0))
			}
			slices.Sort(runs)
			el := runs[len(runs)/2]
			t.AddRow(m, topo.Name, fmt.Sprintf("%d", prof.NumLayers()), el.String())
			if el > 8*time.Second {
				return nil, fmt.Errorf("optimizer took %v for %s on %s — exceeds the paper's 8 s", el, m, topo.Name)
			}
		}
	}
	t.AddNote("runtime: the median of 5 NewPlan calls; all far below the paper's 8-second bound")
	return []*Table{t}, nil
}
