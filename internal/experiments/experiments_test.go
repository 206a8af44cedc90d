package experiments

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
)

// TestAllExperimentsRunQuick exercises every registered experiment in
// quick mode — any internal shape check (fig15 correlation, fig18
// monotonicity, optimizer time bound, fig11 accuracy gap...) fails the
// run.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tables, err := quickRuns()[id].tables, quickRuns()[id].err
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables returned")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %q has no rows", tbl.Title)
				}
				var buf bytes.Buffer
				tbl.Fprint(&buf)
				if buf.Len() == 0 {
					t.Fatal("empty render")
				}
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", true); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact from DESIGN.md's experiment index must be
	// registered.
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig8", "fig10", "fig11", "fig12",
		"fig13", "fig14a", "fig14b", "fig15", "fig16", "fig17", "fig18",
		"tbl1", "tbl3", "sec54", "opt", "fig15rt",
		"asp", "abl-stash", "abl-vsync", "abl-repl", "abl-topo",
		"abl-recompute", "abl-memory", "abl-gpipe-stats", "abl-straggler",
		"ext-transformer",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
		if Describe(id) == "" {
			t.Fatalf("experiment %s has no description", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
}

// cell parses the numeric prefix of a table cell like "3.31x" or "64%".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimRight(s, "x%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// Shape: Figure 1 — overheads rise with worker count and ResNet-50 stays
// far below VGG-16 at scale.
func TestFig1Shape(t *testing.T) {
	tables, err := Run("fig1", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		byModel := map[string][]float64{}
		for _, row := range tbl.Rows {
			var vals []float64
			for _, c := range row[1:] {
				vals = append(vals, cell(t, c))
			}
			byModel[row[0]] = vals
		}
		for m, vals := range byModel {
			last := vals[len(vals)-1]
			if last < vals[0]-1e-9 {
				t.Fatalf("%s: %s overhead decreased with scale: %v", tbl.Title, m, vals)
			}
		}
		vgg := byModel["VGG-16"]
		res := byModel["ResNet-50"]
		if res[len(res)-1] > vgg[len(vgg)-1] {
			t.Fatalf("%s: ResNet-50 overhead (%v) exceeds VGG-16 (%v) at scale",
				tbl.Title, res[len(res)-1], vgg[len(vgg)-1])
		}
	}
}

// Shape: Table 1 — ResNet-50 rows are DP at 1x; VGG-16 and AlexNet on
// Cluster-A beat DP by ≥2x; GNMT rows beat DP.
func TestTable1Shape(t *testing.T) {
	tables, err := Run("tbl1", true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	for _, row := range rows {
		model, clusterCfg, config := row[0], row[1], row[2]
		speedup := cell(t, row[4])
		switch {
		case model == "ResNet-50":
			if speedup > 1.01 || !strings.Contains(config, "DP") {
				t.Fatalf("ResNet-50 should fall back to DP at 1x, got %s %.2f", config, speedup)
			}
		case model == "VGG-16" && clusterCfg == "4x4 (A)":
			if speedup < 2 {
				t.Fatalf("VGG-16 4x4(A) speedup %.2f, want ≥2 (paper 5.28)", speedup)
			}
		case model == "AlexNet" && clusterCfg == "4x4 (A)":
			if speedup < 2 {
				t.Fatalf("AlexNet 4x4(A) speedup %.2f, want ≥2 (paper 4.92)", speedup)
			}
		case strings.HasPrefix(model, "GNMT") && strings.Contains(clusterCfg, "(A)"):
			if speedup < 1.3 {
				t.Fatalf("%s %s speedup %.2f, want ≥1.3", model, clusterCfg, speedup)
			}
		}
	}
}

// Every Table 1 row divides by the planner's own one-stage plan: the
// baseline's throughput is the one cluster.Simulate runs for
// partition.DataParallel on the row's cluster.
func TestDPBaselineIsTheOneStagePlan(t *testing.T) {
	for _, c := range table1Cases() {
		prof, err := modelzoo.ByName(c.model, c.topo.Device, modelzoo.PaperBatchSize(c.model))
		if err != nil {
			t.Fatal(err)
		}
		dp, err := dpPlan(prof, c.topo, c.topo.TotalWorkers())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := partition.DataParallel(prof, c.topo)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Simulate(cluster.Config{Profile: prof, Topo: c.topo, Plan: plan,
			Policy: schedule.PipeDream1F1B, Minibatches: 8 * plan.Workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dp.PredictedThroughput, res.Throughput; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s %s: baseline %v samples/s, Simulate(DataParallel) %v", c.model, c.cfgLabel, got, want)
		}
	}
}

// Shape: Figure 17 — GNMT and VGG communicate far less than DP; ResNet's
// best non-DP config communicates more.
func TestFig17Shape(t *testing.T) {
	tables, err := Run("fig17", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		ratio := cell(t, row[3])
		switch row[0] {
		case "GNMT-8", "GNMT-16", "VGG-16":
			if ratio > 0.5 {
				t.Fatalf("%s non-DP/DP ratio %.2f, want <0.5", row[0], ratio)
			}
		case "ResNet-50":
			if ratio < 1 {
				t.Fatalf("ResNet-50 ratio %.2f, want >1 (non-DP communicates more)", ratio)
			}
		}
	}
}

// Shape: §5.4 — GPipe is slower than 1F1B at every depth.
func TestSec54Shape(t *testing.T) {
	tables, err := Run("sec54", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if cell(t, row[2]) <= 0 {
			t.Fatalf("GPipe not slower than 1F1B: %v", row)
		}
	}
}

// Shape: Figure 14a — pipelining beats model parallelism ≥2x everywhere,
// and replication only helps.
func TestFig14aShape(t *testing.T) {
	tables, err := Run("fig14a", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		straight, repl := cell(t, row[2]), cell(t, row[3])
		if straight < 2 {
			t.Fatalf("%s: straight pipeline %.2fx over MP, want ≥2", row[0], straight)
		}
		if repl < straight-0.01 {
			t.Fatalf("%s: replication made things worse (%v vs %v)", row[0], repl, straight)
		}
	}
}

// Shape: §3.2 — every worker's static cycle is one forward and one
// backward: on a straight 4-stage pipeline stage s's backward trails its
// forward by 3−s minibatches; under 2-1 each input replica's trails by 2,
// the replica count, so each replica advances by 2 per cycle.
func TestStaticShape(t *testing.T) {
	tables, err := Run("static", true)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"F@+0  B@-3", "F@+0  B@-2", "F@+0  B@-1", "F@+0  B@+0"},
		{"F@+0  B@-2", "F@+0  B@-2", "F@+0  B@+0"},
	}
	if len(tables) != len(want) {
		t.Fatalf("%d static tables, want %d", len(tables), len(want))
	}
	for i, tbl := range tables {
		var got []string
		for _, row := range tbl.Rows {
			got = append(got, row[1])
		}
		if !slices.Equal(got, want[i]) {
			t.Errorf("%s: cycles %q, want %q", tbl.Title, got, want[i])
		}
	}
}

// Shape: Figure 13 — the largest LARS batch fails the target; some batch
// reaches it.
func TestFig13Shape(t *testing.T) {
	tables, err := Run("fig13", true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if rows[len(rows)-1][2] != "never" {
		t.Fatalf("largest batch should miss the target: %v", rows[len(rows)-1])
	}
	reached := false
	for _, row := range rows {
		if row[2] != "never" {
			reached = true
		}
	}
	if !reached {
		t.Fatal("no batch size reached the target — LARS setup broken")
	}
}

// Shape: ablation — naive pipelining's final training loss is worse than
// stashing's.
func TestAblStashShape(t *testing.T) {
	tables, err := Run("abl-stash", true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	stashLoss, naiveLoss := cell(t, last[3]), cell(t, last[4])
	if naiveLoss < stashLoss {
		t.Fatalf("naive pipelining loss %.4f beats stashing %.4f — ablation inverted", naiveLoss, stashLoss)
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(true, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "== ") < 20 {
		t.Fatalf("expected ≥20 tables, got %d", strings.Count(out, "== "))
	}
}
