// Package schedule implements PipeDream's work-scheduling machinery
// (§3.2): assignment of workers to (possibly replicated) pipeline stages,
// the static schedule at the plan's in-flight depth, deterministic round-robin routing of
// minibatches across stage replicas (the "RR" in 1F1B-RR), and the shared
// timeline vocabulary used by the cluster simulator, the runtime, and the
// figure-rendering experiments.
package schedule

import (
	"fmt"
	"sort"
	"strings"

	"pipedream/internal/partition"
)

// Policy selects the inter-batch scheduling discipline.
type Policy int

// Scheduling policies compared in the paper.
const (
	// PipeDream1F1B: startup admits the plan's Depth minibatches per
	// input replica and each later stage its window, then every worker
	// alternates one forward with one backward; no flushes.
	PipeDream1F1B Policy = iota
	// GPipe: admit m microbatches, run all forwards then all backwards,
	// flush the pipeline, apply the update, repeat.
	GPipe
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PipeDream1F1B:
		return "1F1B"
	case GPipe:
		return "GPipe"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// WorkerRef locates a worker within a plan: which stage and which replica
// of that stage.
type WorkerRef struct {
	Stage, Replica int
}

// Assignment maps the workers of a plan to stages and back. Worker IDs are
// dense, assigned stage by stage (stage 0's replicas first), matching the
// paper's figures.
type Assignment struct {
	Plan *partition.Plan
	// Workers[w] is the stage/replica of worker w.
	Workers []WorkerRef
	// StageWorkers[s][r] is the worker ID of replica r of stage s.
	StageWorkers [][]int
}

// Assign lays out plan stages onto dense worker IDs.
func Assign(plan *partition.Plan) *Assignment {
	a := &Assignment{Plan: plan}
	id := 0
	for s, st := range plan.Stages {
		replicas := make([]int, st.Replicas)
		for r := 0; r < st.Replicas; r++ {
			a.Workers = append(a.Workers, WorkerRef{Stage: s, Replica: r})
			replicas[r] = id
			id++
		}
		a.StageWorkers = append(a.StageWorkers, replicas)
	}
	return a
}

// NumWorkers returns the total worker count.
func (a *Assignment) NumWorkers() int { return len(a.Workers) }

// ReplicaFor returns the replica index that must execute minibatch mb at a
// stage with the given replica count — deterministic round-robin, so the
// backward pass of a minibatch lands on the same worker that ran its
// forward pass (the correctness requirement of 1F1B-RR).
func ReplicaFor(mb, replicas int) int {
	if replicas < 1 {
		panic(fmt.Sprintf("schedule: replicas = %d", replicas))
	}
	return mb % replicas
}

// OpKind distinguishes forward from backward work.
type OpKind int

// Work item kinds.
const (
	Forward OpKind = iota
	Backward
	// SyncOp models a weight-synchronization (all_reduce) interval in a
	// timeline (data-parallel stages and BSP baselines).
	SyncOp
	// TransferOp models an asynchronous activation/gradient transfer on a
	// link (recorded separately from worker busy time, since transfers
	// overlap compute).
	TransferOp
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case Forward:
		return "F"
	case Backward:
		return "B"
	case SyncOp:
		return "S"
	case TransferOp:
		return "T"
	}
	return "?"
}

// Op is one executed work item on a worker's timeline.
type Op struct {
	Worker    int
	Stage     int
	Minibatch int
	Kind      OpKind
	Start     float64
	End       float64
}

// Timeline is a per-worker record of executed ops, the raw material for
// the paper's pipeline figures and for utilization metrics.
type Timeline struct {
	Workers int
	Ops     []Op
	// Horizon is the time at which recording stopped.
	Horizon float64
}

// Utilization returns each worker's busy fraction over [from, Horizon].
func (t *Timeline) Utilization(from float64) []float64 {
	busy := make([]float64, t.Workers)
	span := t.Horizon - from
	if span <= 0 {
		return busy
	}
	for _, op := range t.Ops {
		s, e := op.Start, op.End
		if e <= from {
			continue
		}
		if s < from {
			s = from
		}
		if e > t.Horizon {
			e = t.Horizon
		}
		busy[op.Worker] += e - s
	}
	for i := range busy {
		busy[i] /= span
	}
	return busy
}

// MeanUtilization averages Utilization over workers.
func (t *Timeline) MeanUtilization(from float64) float64 {
	u := t.Utilization(from)
	if len(u) == 0 {
		return 0
	}
	var s float64
	for _, v := range u {
		s += v
	}
	return s / float64(len(u))
}

// WorkerOps returns worker w's ops sorted by start time.
func (t *Timeline) WorkerOps(w int) []Op {
	var ops []Op
	for _, op := range t.Ops {
		if op.Worker == w {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	return ops
}

// Render draws an ASCII Gantt chart of the timeline (one row per worker),
// quantized to the given time step — the textual analogue of the paper's
// Figures 2-4 and 8. A forward prints its minibatch's last digit, a
// backward the letter 'a'–'j' for that digit, a sync '#', and idle time
// '.'.
func (t *Timeline) Render(step float64) string {
	if step <= 0 || t.Horizon <= 0 {
		return ""
	}
	cols := int(t.Horizon/step) + 1
	if cols > 400 {
		cols = 400
	}
	var b strings.Builder
	for w := 0; w < t.Workers; w++ {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, op := range t.WorkerOps(w) {
			lo := int(op.Start / step)
			hi := int(op.End / step)
			for c := lo; c < hi && c < cols; c++ {
				switch op.Kind {
				case Forward:
					row[c] = byte('0' + op.Minibatch%10)
				case Backward:
					row[c] = byte('a' + op.Minibatch%10) // letters mark backward
				case SyncOp:
					row[c] = '#'
				}
			}
		}
		fmt.Fprintf(&b, "worker %d |%s|\n", w, row)
	}
	return b.String()
}

// Validate checks a timeline, simulated or run, against the event graph
// it was to execute: every forward and backward is a node of g, runs on
// that node's worker, and runs exactly once; and no op starts before the
// end of its order, loss, sync and flush predecessors, nor before the
// start of its activation and gradient predecessors (a runtime op's end
// includes its sends, which the receiver may overtake). Routing,
// alternation and the in-flight bound follow from the table's order.
// It returns an error describing the first violation.
func Validate(t *Timeline, g *EventGraph) error {
	ran := make([]*Op, len(g.Nodes))
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Kind == SyncOp {
			continue
		}
		mb := op.Minibatch - g.start
		if op.Stage < 0 || op.Stage >= len(g.at) || op.Kind > Backward || mb < 0 || mb >= len(g.at[0][0]) {
			return fmt.Errorf("%v%d at stage %d is not in the schedule", op.Kind, op.Minibatch, op.Stage)
		}
		v := g.at[op.Stage][op.Kind][mb]
		if w := g.Nodes[v].Worker; op.Worker != w {
			return fmt.Errorf("%v%d at stage %d runs on worker %d, routed to worker %d", op.Kind, op.Minibatch, op.Stage, op.Worker, w)
		}
		if ran[v] != nil {
			return fmt.Errorf("%v%d at stage %d runs twice", op.Kind, op.Minibatch, op.Stage)
		}
		ran[v] = op
	}
	for v, n := range g.Nodes {
		if ran[v] == nil {
			return fmt.Errorf("%v%d at stage %d never runs", n.Kind, n.Minibatch, n.Stage)
		}
	}
	for v, n := range g.Nodes {
		for _, a := range n.Out {
			from, to := ran[v], ran[a.To]
			ready := from.End
			if a.Class == partition.ActivationArc || a.Class == partition.GradientArc {
				ready = from.Start
			}
			if to.Start < ready-1e-9 {
				return fmt.Errorf("worker %d starts %v%d at %.4g, before its %v predecessor %v%d at stage %d allows (%.4g)",
					to.Worker, to.Kind, to.Minibatch, to.Start, a.Class, from.Kind, from.Minibatch, from.Stage, ready)
			}
		}
	}
	return nil
}
