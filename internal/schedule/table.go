package schedule

import (
	"fmt"

	"pipedream/internal/partition"
)

// TableOp is one entry of a worker's static schedule: run the forward or
// the backward pass of one minibatch.
type TableOp struct {
	Kind      OpKind
	Minibatch int
}

// Table is the static schedule of §3.2: for every worker of the
// assignment, the ordered forward and backward passes it executes for
// minibatches [start, end). It is the one place that decides op order —
// the runtime executes a worker's list op by op, blocking for the message
// each op needs; the simulator runs the same lists as an EventGraph — so
// the order, and with it the weight version every forward reads, is a
// pure function of the arguments. A plan below depth 1 is an error.
//
// PipeDream1F1B: a worker owns the minibatches ReplicaFor routes to it.
// It runs `warm-up` forwards, then alternates one backward with one
// forward over its own minibatches in ascending order, then drains the
// remaining backwards. The warm-up (partition.WarmUp) is the worker's
// share of the stage's in-flight window (partition.Plan.Windows): the
// plan's Depth per input replica, elsewhere the least that covers the
// stage's 1F1B cycles — n−s at stage s of an even straight pipeline on
// free links (Figure 4). In steady state every backward runs warm-up − 1
// updates after its forward. Model parallelism is this table at depth 1
// (plan.AtDepth(1)).
//
// GPipe: per round of Depth consecutive microbatches, from a multiple of
// Depth, all of the worker's forwards in ascending order, then its
// backwards in reverse.
func Table(a *Assignment, policy Policy, start, end int) ([][]TableOp, error) {
	depth := a.Plan.Depth
	if depth < 1 {
		return nil, fmt.Errorf("schedule: plan has depth %d (build it with partition.NewPlan)", depth)
	}
	var window []int
	if policy != GPipe {
		window = a.Plan.Windows()
	}
	table := make([][]TableOp, a.NumWorkers())
	for w, ref := range a.Workers {
		replicas := len(a.StageWorkers[ref.Stage])
		var own []int
		for mb := start; mb < end; mb++ {
			if ReplicaFor(mb, replicas) == ref.Replica {
				own = append(own, mb)
			}
		}
		ops := make([]TableOp, 0, 2*len(own))
		if policy == GPipe {
			for lo := 0; lo < len(own); {
				hi := lo
				for hi < len(own) && own[hi]/depth == own[lo]/depth {
					ops = append(ops, TableOp{Forward, own[hi]})
					hi++
				}
				for i := hi - 1; i >= lo; i-- {
					ops = append(ops, TableOp{Backward, own[i]})
				}
				lo = hi
			}
		} else if len(own) > 0 {
			warm := min(len(own), partition.WarmUp(window[ref.Stage], replicas, own[0]-start))
			for _, mb := range own[:warm] {
				ops = append(ops, TableOp{Forward, mb})
			}
			for k, mb := range own {
				ops = append(ops, TableOp{Backward, mb})
				if k+warm < len(own) {
					ops = append(ops, TableOp{Forward, own[k+warm]})
				}
			}
		}
		table[w] = ops
	}
	return table, nil
}

// Arc is a precedence of an EventGraph: node To waits for its source.
type Arc struct {
	To    int
	Class partition.ArcClass
	// Edge indexes the plan's Graph.Edges for activation and gradient
	// arcs (the link they cross), and is -1 otherwise.
	Edge int
}

// Node is one op of an EventGraph: a Table entry, the worker running it
// and that worker's stage.
type Node struct {
	TableOp
	Worker, Stage int
	// Out lists the ops waiting for this one in partition.Plan.Arcs'
	// order.
	Out []Arc
}

// EventGraph is the unrolled precedence graph of a run (§3.2, Fig. 8):
// the Table's ops for minibatches [start, end) and every arc between them.
// With a duration per op and per arc class it is the run's timed event
// graph — what cluster.Simulate executes and Validate checks a timeline
// against.
type EventGraph struct {
	// Nodes are the Table's ops worker by worker, each in its table order.
	Nodes []Node
	start int
	at    [][2][]int // at[s][kind][mb-start]: the node of that pass
}

// Graph builds the event graph of Table(a, policy, start, end): the plan's
// Arcs over [start, end), under GPipe its rounds', with each order arc to
// the worker's next Table op (warm-up and drain run F→F, B→B).
func Graph(a *Assignment, policy Policy, start, end int) (*EventGraph, error) {
	table, err := Table(a, policy, start, end)
	if err != nil {
		return nil, err
	}
	edges, inputs := a.Plan.Graph.Edges, len(a.StageWorkers[0])
	mbs, stages := end-start, len(a.StageWorkers)
	g := &EventGraph{Nodes: make([]Node, 0, 2*stages*mbs), start: start, at: make([][2][]int, stages)}
	for s := range g.at {
		g.at[s] = [2][]int{make([]int, mbs), make([]int, mbs)}
	}
	for w, ops := range table {
		for _, op := range ops {
			s := a.Workers[w].Stage
			g.at[s][op.Kind][op.Minibatch-start] = len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{TableOp: op, Worker: w, Stage: s})
		}
	}
	// Each node's arcs are one run of a shared array, in the order Out
	// documents; its capacity bounds their count.
	arcs := make([]Arc, 0, 2*len(g.Nodes)+mbs*(2*len(edges)+stages+inputs))
	// The table gives every order arc its target, so no window sets its
	// offset; a nil one asks for GPipe's arcs.
	window, out := make([]int, stages), []partition.Arc(nil)
	if policy == GPipe {
		window = nil
	}
	for v, n := range g.Nodes {
		lo := len(arcs)
		out = a.Plan.Arcs(window, n.Stage, int(n.Kind), n.Minibatch, out[:0])
		for _, arc := range out {
			if arc.Class == partition.OrderArc { // the table's next op on this worker
				if v+1 < len(g.Nodes) && g.Nodes[v+1].Worker == n.Worker {
					arcs = append(arcs, Arc{v + 1, arc.Class, -1})
				}
			} else if to := n.Minibatch - start + arc.D; to < mbs {
				arcs = append(arcs, Arc{g.at[arc.Stage][arc.Pass][to], arc.Class, arc.Edge})
			}
		}
		g.Nodes[v].Out = arcs[lo:len(arcs):len(arcs)]
	}
	return g, nil
}
