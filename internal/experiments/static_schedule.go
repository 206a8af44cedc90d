package experiments

import (
	"fmt"
	"slices"

	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

func init() {
	register("static", "The static 1F1B-RR schedule each worker runs repeatedly (§3.2)", expStatic)
}

// expStatic prints the static per-worker schedule §3.2 describes: "a
// static schedule of operators that each worker runs repeatedly, keeping
// utilization high across all workers" — each worker's steady-state
// (op, minibatch-offset) pair, read off schedule.Table, the same table the
// runtime executes and the simulator runs: the last warm-up forward and
// the backward that follows it, the pair every later pair of the worker's
// table repeats one round further on.
func expStatic(quick bool) ([]*Table, error) {
	var tables []*Table
	for _, c := range []struct {
		title string
		prof  func() ([]partition.StageSpec, int)
	}{
		{"straight 4-stage pipeline (Figure 4)", func() ([]partition.StageSpec, int) {
			return []partition.StageSpec{
				{FirstLayer: 0, LastLayer: 0, Replicas: 1},
				{FirstLayer: 1, LastLayer: 1, Replicas: 1},
				{FirstLayer: 2, LastLayer: 2, Replicas: 1},
				{FirstLayer: 3, LastLayer: 3, Replicas: 1},
			}, 4
		}},
		{"2-1 replicated configuration (Figure 8)", func() ([]partition.StageSpec, int) {
			return []partition.StageSpec{
				{FirstLayer: 0, LastLayer: 1, Replicas: 2},
				{FirstLayer: 2, LastLayer: 2, Replicas: 1},
			}, 3
		}},
	} {
		specs, workers := c.prof()
		prof := timelineProfile(specs[len(specs)-1].LastLayer + 1)
		topo := topology.Flat(workers, 1e15, topology.V100)
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: specs})
		if err != nil {
			return nil, err
		}
		// Long enough for every worker to leave its warm-up: no warm-up
		// exceeds the larger of the depth and the worker count, no replica
		// count exceeds the worker count.
		table, err := schedule.Table(schedule.Assign(plan), schedule.PipeDream1F1B, 0, (max(plan.Depth, workers)+1)*workers)
		if err != nil {
			return nil, err
		}
		t := &Table{ID: "static", Title: "Static 1F1B-RR schedule — " + c.title,
			Header: []string{"worker", "repeating pattern (kind @ minibatch offset)"}}
		for w, ops := range table {
			b := slices.IndexFunc(ops, func(op schedule.TableOp) bool { return op.Kind == schedule.Backward })
			f := ops[b-1]
			t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%v@+0  %v@%+d", f.Kind, ops[b].Kind, ops[b].Minibatch-f.Minibatch))
		}
		t.AddNote("each worker executes this fixed cycle without any distributed coordination;")
		t.AddNote("replicated-stage workers advance by their replica count per cycle (round-robin);")
		t.AddNote("a backward at offset -k·R runs k local updates after its forward (staleness = warm-up - 1)")
		tables = append(tables, t)
	}
	return tables, nil
}
