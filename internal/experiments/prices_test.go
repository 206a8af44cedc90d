package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"pipedream/internal/cluster"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
)

// quickRun is one experiment's result in quick mode.
type quickRun struct {
	tables []*Table
	err    error
}

// quickRuns runs every experiment in quick mode once per test binary, so
// the shape check and the referee of the printed prices read one run.
var quickRuns = sync.OnceValue(func() map[string]quickRun {
	runs := map[string]quickRun{}
	for _, id := range IDs() {
		tables, err := Run(id, true)
		runs[id] = quickRun{tables, err}
	}
	return runs
})

// recordedPlans returns every plan whose price a row of the repro prints,
// as Table.price recorded them. Quick mode shortens simulations and
// training, not plans, so these are the plans of a full run.
func recordedPlans(t *testing.T) []pricedPlan {
	t.Helper()
	var out []pricedPlan
	for _, id := range IDs() {
		run := quickRuns()[id]
		if run.err != nil {
			t.Fatalf("%s: %v", id, run.err)
		}
		for _, tbl := range run.tables {
			out = append(out, tbl.plans...)
		}
	}
	return out
}

// simulate returns what cluster.Simulate measures running p under its
// policy.
func (p pricedPlan) simulate(t *testing.T, minibatches int) *cluster.Result {
	t.Helper()
	res, err := cluster.Simulate(cluster.Config{Profile: p.prof, Topo: p.topo, Plan: p.plan,
		Policy: p.policy, Minibatches: minibatches})
	if err != nil {
		t.Fatalf("%s: %v", p.row, err)
	}
	return res
}

// The repro prints the planner's price for every 1F1B and GPipe
// throughput row and every 1F1B memory row; the simulator referees it
// here, over exactly the plans those rows price, each under the policy its
// row prints. Every plan must simulate within [0.99, 1.03] of its price,
// AlexNet 4x4 (which simulated at 2.6× before transfers shared a link)
// within 2 %, and Figure 15's price and simulation must correlate at
// r ≥ 0.99. Under 1F1B each stage's StageMemory must be byte for byte the
// largest peak the simulator reaches on a worker of that stage. Run with
// -v for the table.
func TestPredictedVersusSimulated(t *testing.T) {
	plans := recordedPlans(t)
	t.Logf("%d plans priced by the repro's rows", len(plans))
	t.Log("| row | plan | policy | windows | predicted (samples/s) | simulated (samples/s) | simulated ÷ predicted |")
	t.Log("|---|---|---|---|---|---|---|")
	var xs, ys []float64
	alexNet := false
	for _, p := range plans {
		res := p.simulate(t, 640)
		pred, sim, windows := p.plan.PredictedThroughput, res.Throughput, fmt.Sprint(p.plan.Windows())
		if p.policy == schedule.GPipe {
			pred, windows = p.plan.GPipeThroughput(), "-"
		}
		ratio := sim / pred
		t.Logf("| %s | `%s` | %v | %s | %.1f | %.1f | %.3f |", p.row, p.plan.ConfigString(), p.policy, windows, pred, sim, ratio)
		if ratio > 1.03 || ratio < 0.99 {
			t.Errorf("%s %s simulates at %.3f of its price, outside [0.99, 1.03]", p.row, p.plan.ConfigString(), ratio)
		}
		if p.row == "tbl1 AlexNet 4x4 (A)" {
			alexNet = true
			if math.Abs(ratio-1) > 0.02 {
				t.Errorf("%s simulates at %.3f of its price, want within ±2%%", p.row, ratio)
			}
		}
		if strings.HasPrefix(p.row, "fig15 ") {
			xs, ys = append(xs, pred), append(ys, sim)
		}
		if p.policy == schedule.GPipe {
			continue
		}
		a := schedule.Assign(p.plan)
		for s, price := range partition.StageMemory(p.plan, p.prof) {
			var peak int64
			for _, w := range a.StageWorkers[s] {
				peak = max(peak, res.PeakMemory[w])
			}
			if peak != price {
				t.Errorf("%s %s: stage %d's memory priced at %d B, simulated peak %d B", p.row, p.plan.ConfigString(), s, price, peak)
			}
		}
	}
	if !alexNet || len(xs) == 0 {
		t.Fatalf("tbl1's AlexNet 4x4 (A) row recorded: %v; fig15 plans recorded: %d", alexNet, len(xs))
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
	for _, p := range recordedPlans(t) {
		short, long := p.simulate(t, 320).Throughput, p.simulate(t, 640).Throughput
		if math.Abs(short/long-1) > 0.005 {
			t.Errorf("%s %s: %.2f samples/s at 320 minibatches, %.2f at 640", p.row, p.plan.ConfigString(), short, long)
		}
	}
}
