package schedule_test

import (
	"os"
	"path/filepath"
	"testing"

	"pipedream/internal/cluster"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// goldenConfig is one (workers, input-replicas) shape from the paper's
// pipeline figures: Replicas[s] is the replica count of stage s, one
// profiled layer per stage.
type goldenConfig struct {
	name     string
	replicas []int
	// graph, when non-nil, shapes the stages into a DAG instead of the
	// linear chain (all-1 replicas, one layer per stage).
	graph *partition.StageGraph
	// depth, when set, is the depth the golden timeline was drawn at,
	// above the plan's own.
	depth int
}

func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{name: "w4r1", replicas: []int{1, 1, 1, 1}}, // straight 4-stage pipeline (Figure 4)
		{name: "w4r2", replicas: []int{2, 1, 1}},    // 2-1-1 replicated input (Figure 8)
		{name: "w6r3", replicas: []int{3, 1, 1, 1}}, // 3-1-1-1, depth 2
		// Diamond dataflow: 0 fans out to 1 and 2, which join (sum) at 3.
		{name: "diamond", replicas: []int{1, 1, 1, 1}, graph: &partition.StageGraph{
			Nodes: 4,
			Edges: []partition.StageEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
			Joins: []partition.JoinOp{partition.JoinNone, partition.JoinNone, partition.JoinNone, partition.JoinSum},
		}, depth: 4},
		// Two-head dataflow: a shared trunk 0→1 splits into sinks 2 and 3.
		{name: "twohead", replicas: []int{1, 1, 1, 1}, graph: &partition.StageGraph{
			Nodes: 4,
			Edges: []partition.StageEdge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}},
		}, depth: 4},
	}
}

func goldenPlan(t *testing.T, cfg goldenConfig) (*profile.ModelProfile, *topology.Topology, *partition.Plan) {
	t.Helper()
	prof := &profile.ModelProfile{Model: cfg.name, MinibatchSize: 1, InputBytes: 4}
	workers := 0
	layer := 0
	var specs []partition.StageSpec
	for _, r := range cfg.replicas {
		// A stage replicated r ways carries r layers, so per-replica
		// work matches the unreplicated stages — the balanced shape the
		// paper's planner produces when it chooses to replicate.
		first := layer
		for i := 0; i < r; i++ {
			prof.Layers = append(prof.Layers, profile.LayerProfile{
				Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4,
			})
			layer++
		}
		specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: layer - 1, Replicas: r})
		workers += r
	}
	topo := topology.Flat(workers, 1e18, topology.V100)
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: specs, Graph: cfg.graph})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.depth > 0 {
		plan.Depth = cfg.depth
	}
	return prof, topo, plan
}

// TestGolden1F1BTimelines simulates 1F1B-RR for three canonical
// (workers, input-replicas) shapes and pins the resulting schedule:
//
//  1. the rendered timeline must match the checked-in golden file
//     character for character (regenerate with UPDATE_GOLDEN=1);
//  2. the plan runs at the depth its own windows give — on the chains
//     NOAM = ceil(workers/input-replicas) — or at the one pinned, and
//     startup must admit exactly that many minibatches per input
//     replica before the first backward runs;
//  3. the timeline must pass schedule.Validate against the run's event
//     graph: every op once, on its routed worker, after its
//     predecessors — so every worker runs its schedule.Table list in
//     order (the simulator prices the table, it does not reorder it),
//     alternating, within the depth.
func TestGolden1F1BTimelines(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			prof, topo, plan := goldenPlan(t, cfg)
			const mbs = 30
			res, err := cluster.Simulate(cluster.Config{
				Profile: prof, Topo: topo, Plan: plan,
				Policy: schedule.PipeDream1F1B, Minibatches: mbs,
				RecordTimeline: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			a := schedule.Assign(plan)
			depth := cfg.depth
			if depth == 0 {
				depth = partition.Noam(a.NumWorkers(), cfg.replicas[0])
			}
			if plan.Depth != depth || plan.Windows()[0] != depth*cfg.replicas[0] {
				t.Fatalf("plan depth = %d, windows %v, want depth %d", plan.Depth, plan.Windows(), depth)
			}

			// Startup admission: each input replica runs exactly depth
			// forwards before its first backward.
			for _, w := range a.StageWorkers[0] {
				ops := res.Timeline.WorkerOps(w)
				admitted := 0
				for _, op := range ops {
					if op.Kind == schedule.Backward {
						break
					}
					if op.Kind == schedule.Forward {
						admitted++
					}
				}
				if admitted != depth {
					t.Errorf("input worker %d admitted %d minibatches at startup, depth %d",
						w, admitted, depth)
				}
			}

			g, err := schedule.Graph(a, schedule.PipeDream1F1B, 0, mbs)
			if err != nil {
				t.Fatal(err)
			}
			if err := schedule.Validate(res.Timeline, g); err != nil {
				t.Errorf("the simulated timeline breaks its schedule: %v", err)
			}

			got := res.Timeline.Render(1.0)
			if got == "" {
				t.Fatal("empty timeline render")
			}
			golden := filepath.Join("testdata", cfg.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("timeline diverged from %s (UPDATE_GOLDEN=1 regenerates)\n--- got ---\n%s--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}
