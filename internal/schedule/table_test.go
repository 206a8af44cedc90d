package schedule

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pipedream/internal/partition"
)

// render prints a worker's table compactly: "F0 F1 B0 F2 …".
func render(ops []TableOp) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = fmt.Sprintf("%v%d", op.Kind, op.Minibatch)
	}
	return strings.Join(parts, " ")
}

func TestTableKnownShapes(t *testing.T) {
	for _, c := range []struct {
		name       string
		plan       *partition.Plan
		policy     Policy
		depth      int
		start, end int
		want       []string
	}{
		// Figure 4: stage s of a straight n-stage pipeline warms up with
		// n−s forwards.
		{"straight-4", planWith(1, 1, 1, 1), PipeDream1F1B, 4, 0, 6, []string{
			"F0 F1 F2 F3 B0 F4 B1 F5 B2 B3 B4 B5",
			"F0 F1 F2 B0 F3 B1 F4 B2 F5 B3 B4 B5",
			"F0 F1 B0 F2 B1 F3 B2 F4 B3 F5 B4 B5",
			"F0 B0 F1 B1 F2 B2 F3 B3 F4 B4 F5 B5",
		}},
		// Figure 8: 2-1, round-robin over the input replicas; the window
		// starts off a replica boundary and has odd length.
		{"2-1", planWith(2, 1), PipeDream1F1B, 2, 3, 10, []string{
			"F4 F6 B4 F8 B6 B8",
			"F3 F5 B3 F7 B5 F9 B7 B9",
			"F3 B3 F4 B4 F5 B5 F6 B6 F7 B7 F8 B8 F9 B9",
		}},
		// A depth below the plan's own caps every stage's warm-up, not
		// just the input stage's.
		{"straight-3-depth-1", planWith(1, 1, 1), PipeDream1F1B, 1, 0, 2, []string{
			"F0 B0 F1 B1", "F0 B0 F1 B1", "F0 B0 F1 B1",
		}},
		{"model-parallel", planWith(1, 1), ModelParallelSingle, 7, 0, 2, []string{
			"F0 B0 F1 B1", "F0 B0 F1 B1",
		}},
		// GPipe: per round of Depth microbatches, all forwards then the
		// backwards in reverse; the last round is short.
		{"gpipe", planWith(1, 1), GPipe, 3, 0, 5, []string{
			"F0 F1 F2 B2 B1 B0 F3 F4 B4 B3",
			"F0 F1 F2 B2 B1 B0 F3 F4 B4 B3",
		}},
	} {
		c.plan.Depth = c.depth
		table := Table(Assign(c.plan), c.policy, c.start, c.end)
		for w, want := range c.want {
			if got := render(table[w]); got != want {
				t.Errorf("%s worker %d:\n got %s\nwant %s", c.name, w, got, want)
			}
		}
	}
}

// replay executes the tables with zero latency: an op runs once the ops
// producing its inputs have — a forward needs the minibatch's forward at
// every predecessor stage, a backward its backward at every successor.
// With sync set a replicated stage's backward additionally completes only
// once every replica with a minibatch in the same round (blocks of
// `replicas` minibatches from start) has begun its own, as the runtime's
// blocking all_reduce makes it. It reports whether every table ran to its
// end.
func replay(a *Assignment, table [][]TableOp, start, end int, sync bool) bool {
	g := a.Plan.Graph
	type key struct {
		stage, mb int
		kind      OpKind
	}
	done := map[key]bool{}  // op completed
	begun := map[key]bool{} // backward entered its all_reduce
	next := make([]int, len(table))
	for progress := true; progress; {
		progress = false
		for w, ops := range table {
			if next[w] == len(ops) {
				continue
			}
			op, stage := ops[next[w]], a.Workers[w].Stage
			ready := true
			if op.Kind == Forward {
				for _, p := range g.Preds(stage) {
					ready = ready && done[key{p, op.Minibatch, Forward}]
				}
			} else {
				for _, q := range g.Succs(stage) {
					ready = ready && done[key{q, op.Minibatch, Backward}]
				}
			}
			if !ready {
				continue
			}
			k := key{stage, op.Minibatch, op.Kind}
			if replicas := len(a.StageWorkers[stage]); sync && op.Kind == Backward && replicas > 1 {
				if !begun[k] {
					begun[k] = true
					progress = true
				}
				first := start + (op.Minibatch-start)/replicas*replicas
				for mb := first; mb < min(first+replicas, end); mb++ {
					ready = ready && begun[key{stage, mb, Backward}]
				}
				if !ready {
					continue
				}
			}
			done[k] = true
			next[w]++
			progress = true
		}
	}
	for w, ops := range table {
		if next[w] != len(ops) {
			return false
		}
	}
	return true
}

// The table is total and deadlock-free: on random stage graphs (fan-in,
// fan-out, several sinks), replica vectors, depths from 1 to twice the
// plan's own (so the windows cover and the windows lowered and capped) and
// windows of any alignment and length, every minibatch runs exactly once
// forward and once backward, forward first, on the worker ReplicaFor
// names, and a zero-latency replay of the tables terminates — with the
// replicas' all_reduce coupling too, wherever the depth admits a whole
// round at all (a stage whose window is narrower than its replica count
// can never complete one, whatever the order).
func TestTableIsTotalAndDeadlockFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		graph := &partition.StageGraph{Nodes: n, Joins: make([]partition.JoinOp, n)}
		replicas := make([]int, n)
		for s := range replicas {
			replicas[s] = 1 + rng.Intn(3)
			if s == 0 {
				continue
			}
			fanIn := 0
			for p := 0; p < s; p++ {
				// One predecessor always; extra in-edges one time in three.
				if p == rng.Intn(s) || rng.Intn(3) == 0 {
					graph.Edges = append(graph.Edges, partition.StageEdge{From: p, To: s})
					fanIn++
				}
			}
			if fanIn == 0 {
				graph.Edges = append(graph.Edges, partition.StageEdge{From: s - 1, To: s})
			} else if fanIn > 1 {
				graph.Joins[s] = partition.JoinSum
			}
		}
		plan := pricedPlan(replicas, graph, rng)
		plan.Depth = 1 + rng.Intn(2*plan.Depth)
		a := Assign(plan)
		depth := plan.Depth
		start := rng.Intn(7)
		end := start + 1 + rng.Intn(40)
		desc := fmt.Sprintf("trial %d: %s depth %d window [%d,%d)", trial, plan.ConfigString(), depth, start, end)

		for _, policy := range []Policy{PipeDream1F1B, GPipe, ModelParallelSingle} {
			table := Table(a, policy, start, end)
			for s := range plan.Stages {
				for mb := start; mb < end; mb++ {
					w := a.StageWorkers[s][ReplicaFor(mb, plan.Stages[s].Replicas)]
					fwd, bwd := -1, -1
					for i, op := range table[w] {
						if op.Minibatch != mb {
							continue
						}
						if (op.Kind == Forward && fwd != -1) || (op.Kind == Backward && bwd != -1) {
							t.Fatalf("%s %v: worker %d runs %v%d twice", desc, policy, w, op.Kind, mb)
						}
						if op.Kind == Forward {
							fwd = i
						} else {
							bwd = i
						}
					}
					if fwd == -1 || bwd == -1 || fwd > bwd {
						t.Fatalf("%s %v: stage %d mb %d: forward at %d, backward at %d of worker %d's table",
							desc, policy, s, mb, fwd, bwd, w)
					}
				}
			}
			ops := 0
			for _, l := range table {
				ops += len(l)
			}
			if ops != 2*n*(end-start) {
				t.Fatalf("%s %v: %d ops in the table, want %d", desc, policy, ops, 2*n*(end-start))
			}
			if !replay(a, table, start, end, false) {
				t.Fatalf("%s %v: replay deadlocks", desc, policy)
			}
		}

		wholeRounds := true
		for s, window := range plan.Windows() {
			wholeRounds = wholeRounds && window >= plan.Stages[s].Replicas
		}
		if wholeRounds && !replay(a, Table(a, PipeDream1F1B, start, end), start, end, true) {
			t.Fatalf("%s: replay with all_reduce coupling deadlocks", desc)
		}
	}
}
