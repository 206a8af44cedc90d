package cluster

import (
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
)

// CycleOp is one element of a worker's repeating 1F1B-RR pattern: the op
// kind and the minibatch offset relative to the cycle's forward (offsets
// are multiples of the stage's replica count for replicated stages,
// since each replica handles every R-th minibatch).
type CycleOp struct {
	Kind            schedule.OpKind
	MinibatchOffset int
}

// StaticSchedule returns the static per-worker schedule §3.2 describes:
// the cyclic pattern of forward and backward passes each worker runs
// repeatedly in steady state, read off schedule.Table at the plan's
// Depth — the last warm-up forward and the backward that follows it, the
// pair every later pair of table entries repeats one round further on.
func StaticSchedule(plan *partition.Plan) ([][]CycleOp, error) {
	a := schedule.Assign(plan)
	// Long enough for every worker to leave its warm-up: no warm-up
	// exceeds the larger of the depth and the worker count, no replica
	// count exceeds the worker count.
	n := (max(plan.Depth, plan.Workers) + 1) * plan.Workers
	table, err := schedule.Table(a, schedule.PipeDream1F1B, 0, n)
	if err != nil {
		return nil, err
	}
	out := make([][]CycleOp, len(table))
	for w, ops := range table {
		b := 0
		for ops[b].Kind != schedule.Backward {
			b++
		}
		f := ops[b-1]
		out[w] = []CycleOp{{f.Kind, 0}, {ops[b].Kind, ops[b].Minibatch - f.Minibatch}}
	}
	return out, nil
}
