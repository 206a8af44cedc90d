package schedule

import "fmt"

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
// each op needs; the simulator prices the same lists — so the order, and
// with it the weight version every forward reads, is a pure function of
// the arguments.
//
// PipeDream1F1B: a worker owns the minibatches ReplicaFor routes to it.
// It runs `warm-up` forwards, then alternates one backward with one
// forward over its own minibatches in ascending order, then drains the
// remaining backwards. The warm-up is the worker's share of the stage's
// in-flight window (partition.Plan.Windows): the plan's Depth per input
// replica, elsewhere the least that covers the stage's 1F1B cycles — n−s
// at stage s of an even straight pipeline on free links (Figure 4). In
// steady state every backward runs warm-up − 1 updates after its forward.
//
// GPipe: per round of Depth consecutive microbatches, all of the
// worker's forwards in ascending order, then its backwards in reverse.
// ModelParallelSingle is the 1F1B table at depth 1.
func Table(a *Assignment, policy Policy, start, end int) [][]TableOp {
	plan := a.Plan
	if policy == ModelParallelSingle {
		plan = plan.AtDepth(1)
	}
	depth := plan.Depth
	if depth < 1 {
		panic(fmt.Sprintf("schedule: depth = %d", depth))
	}
	var window []int
	if policy != GPipe {
		window = plan.Windows()
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
				for hi < len(own) && (own[hi]-start)/depth == (own[lo]-start)/depth {
					ops = append(ops, TableOp{Forward, own[hi]})
					hi++
				}
				for i := hi - 1; i >= lo; i-- {
					ops = append(ops, TableOp{Backward, own[i]})
				}
				lo = hi
			}
		} else {
			// The worker's first forwards are its minibatches inside the
			// stage's window (at least one: a replica whose first minibatch
			// lies beyond a window narrower than the replica count still
			// has to start with it).
			warm := 0
			for warm < len(own) && (warm == 0 || own[warm] < start+window[ref.Stage]) {
				ops = append(ops, TableOp{Forward, own[warm]})
				warm++
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
	return table
}
