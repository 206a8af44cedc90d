package experiments

import (
	"fmt"
	"math"
	"testing"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// pricedPlan is one plan of the repro tables beside what it was priced on.
type pricedPlan struct {
	row  string
	prof *profile.ModelProfile
	topo *topology.Topology
	plan *partition.Plan
}

// optimizerPlans returns the optimizer's plan for every tbl1 and
// ext-transformer row.
func optimizerPlans(t *testing.T) []pricedPlan {
	t.Helper()
	var out []pricedPlan
	add := func(row string, prof *profile.ModelProfile, topo *topology.Topology) {
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		out = append(out, pricedPlan{row, prof, topo, plan})
	}
	for _, c := range table1Cases() {
		prof, err := modelzoo.ByName(c.model, c.topo.Device, modelzoo.PaperBatchSize(c.model))
		if err != nil {
			t.Fatal(err)
		}
		add(c.model+" "+c.cfgLabel, prof, c.topo)
	}
	for _, topo := range []*topology.Topology{topology.ClusterA(4), topology.ClusterB(2)} {
		add("BERT-Large "+topo.Name, modelzoo.BERTLarge(topo.Device, modelzoo.PaperBatchSize("BERT-Large")), topo)
	}
	return out
}

// fig15Plans returns Figure 15's VGG-16 configurations.
func fig15Plans(t *testing.T) []pricedPlan {
	t.Helper()
	topo := topology.ClusterA(4)
	prof := modelzoo.VGG16(topo.Device, 64)
	var out []pricedPlan
	for _, c := range fig15Configs(prof.NumLayers()) {
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: c.specs})
		if err != nil {
			t.Fatalf("fig15 %s: %v", c.name, err)
		}
		out = append(out, pricedPlan{"fig15 " + c.name, prof, topo, plan})
	}
	return out
}

// belowOwnDepthPlans returns the plans that run below the depth their
// windows cover: the memory-constrained plans of abl-memory's GNMT-16
// devices and of two VGG-16 devices, on one Cluster-A server, and Figure
// 18's GNMT-8 model-parallel plan at depths 1 to 7.
func belowOwnDepthPlans(t *testing.T) []pricedPlan {
	t.Helper()
	var out []pricedPlan
	gnmt16 := modelzoo.GNMT16(topology.V100, 64)
	vgg, err := modelzoo.ByName("VGG-16", topology.V100, modelzoo.PaperBatchSize("VGG-16"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prof  *profile.ModelProfile
		memMB int64
	}{{gnmt16, 16384}, {gnmt16, 1400}, {gnmt16, 1100}, {gnmt16, 900}, {vgg, 3296}, {vgg, 2478}} {
		dev := topology.Device{Name: fmt.Sprintf("%dMB", c.memMB), EffectiveFLOPS: topology.V100.EffectiveFLOPS, MemBytes: c.memMB << 20}
		topo := &topology.Topology{Name: dev.Name, Device: dev, Levels: topology.ClusterA(1).Levels}
		plan, err := partition.NewPlan(c.prof, topo, partition.PlanOptions{Memory: true})
		if err != nil {
			t.Fatalf("%s on %s: %v", c.prof.Model, dev.Name, err)
		}
		out = append(out, pricedPlan{fmt.Sprintf("%s / %d MB, depth %d", c.prof.Model, c.memMB, plan.Depth), c.prof, topo, plan})
	}
	topo := topology.ClusterA(1)
	gnmt8 := modelzoo.GNMT8(topo.Device, 64)
	mp, err := partition.ModelParallel(gnmt8, topo)
	if err != nil {
		t.Fatal(err)
	}
	for depth := 1; depth <= 7; depth++ {
		out = append(out, pricedPlan{fmt.Sprintf("fig18 depth %d", depth), gnmt8, topo, mp.AtDepth(depth)})
	}
	return out
}

// simulate returns the steady-state throughput cluster.Simulate runs p at.
func (p pricedPlan) simulate(t *testing.T, minibatches int) float64 {
	t.Helper()
	res, err := cluster.Simulate(cluster.Config{Profile: p.prof, Topo: p.topo, Plan: p.plan,
		Policy: schedule.PipeDream1F1B, Minibatches: minibatches})
	if err != nil {
		t.Fatalf("%s: %v", p.row, err)
	}
	return res.Throughput
}

// The simulator charges what the planner prices: every edge-bound plan
// used to simulate faster than its price (AlexNet 4x4 at 2.6×) because
// transfers shared no link, and seven read 0.63–0.99 of it because their
// windows did not cover an edge's round trip. Every row must read within
// [0.99, 1.03] of its price, AlexNet 4x4, the row the link fixed, within
// 2 %, and Figure 15's correlation must hold. Run with -v for the table.
func TestPredictedVersusSimulated(t *testing.T) {
	t.Log("| row | plan | predicted (samples/s) | simulated (samples/s) | simulated ÷ predicted |")
	t.Log("|---|---|---|---|---|")
	check := func(p pricedPlan) float64 {
		pred, sim := p.plan.PredictedThroughput, p.simulate(t, 640)
		ratio := sim / pred
		t.Logf("| %s | `%s` | %.1f | %.1f | %.3f |", p.row, p.plan.ConfigString(), pred, sim, ratio)
		if ratio > 1.03 || ratio < 0.99 {
			t.Errorf("%s %s simulates at %.3f of its price, outside [0.99, 1.03]", p.row, p.plan.ConfigString(), ratio)
		}
		if p.row == "AlexNet 4x4 (A)" && math.Abs(ratio-1) > 0.02 {
			t.Errorf("AlexNet 4x4 (A) simulates at %.3f of its price, want within ±2%%", ratio)
		}
		return sim
	}
	for _, p := range optimizerPlans(t) {
		check(p)
	}
	var xs, ys []float64
	for _, p := range fig15Plans(t) {
		xs, ys = append(xs, p.plan.PredictedThroughput), append(ys, check(p))
	}
	r := pearson(xs, ys)
	t.Logf("fig15: Pearson r = %.4f between price and simulation", r)
	if r < 0.99 {
		t.Errorf("fig15: Pearson r = %.3f, want ≥ 0.99", r)
	}
	// Below its own depth a plan is priced at the cycles its windows leave
	// short: these rows read 0.278–0.692 of a bottleneck-only price.
	for _, p := range belowOwnDepthPlans(t) {
		pred, sim := p.plan.PredictedThroughput, p.simulate(t, 640)
		t.Logf("| %s | `%s` %v | %.1f | %.1f | %.3f |", p.row, p.plan.ConfigString(), p.plan.Windows(), pred, sim, sim/pred)
		if math.Abs(sim/pred-1) > 0.02 {
			t.Errorf("%s %s simulates at %.3f of its price, want within ±2%%", p.row, p.plan.ConfigString(), sim/pred)
		}
	}
}

// The steady-state window leaves out the warm-up and the drain, so a
// longer run reads the same throughput: a window running to the last
// completion counted the drain's bunched completions and read short runs
// high.
func TestSimulatedThroughputIndependentOfRunLength(t *testing.T) {
	for _, p := range optimizerPlans(t) {
		short, long := p.simulate(t, 320), p.simulate(t, 640)
		if math.Abs(short/long-1) > 0.005 {
			t.Errorf("%s %s: %.2f samples/s at 320 minibatches, %.2f at 640", p.row, p.plan.ConfigString(), short, long)
		}
	}
}
