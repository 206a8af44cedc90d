package experiments

import (
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
