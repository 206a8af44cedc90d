package schedule

import (
	"fmt"
	"math/rand"
	"slices"
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
		// Model parallelism is the 1F1B table at depth 1.
		{"model-parallel", planWith(1, 1), PipeDream1F1B, 1, 0, 2, []string{
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
		table, err := Table(Assign(c.plan), c.policy, c.start, c.end)
		if err != nil {
			t.Fatal(err)
		}
		for w, want := range c.want {
			if got := render(table[w]); got != want {
				t.Errorf("%s worker %d:\n got %s\nwant %s", c.name, w, got, want)
			}
		}
	}
}

// acyclic reports whether every op of g can run, by Kahn's algorithm over
// its arcs and the extra ones (extra[v] lists more successors of v).
func acyclic(g *EventGraph, extra map[int][]int) bool {
	in := make([]int, len(g.Nodes))
	succs := func(v int) []int {
		next := slices.Clone(extra[v])
		for _, a := range g.Nodes[v].Out {
			next = append(next, a.To)
		}
		return next
	}
	var ready []int
	for v := range g.Nodes {
		for _, u := range succs(v) {
			in[u]++
		}
	}
	for v, d := range in {
		if d == 0 {
			ready = append(ready, v)
		}
	}
	ran := 0
	for ; len(ready) > 0; ran++ {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, u := range succs(v) {
			if in[u]--; in[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return ran == len(g.Nodes)
}

// The table is total and deadlock-free: on random stage graphs (fan-in,
// fan-out, several sinks), replica vectors, depths from 1 to twice the
// plan's own (so the windows cover and the windows lowered and capped) and
// windows of any alignment and length, every minibatch runs exactly once
// forward and once backward, forward first, on the worker ReplicaFor
// names, and the unrolled event graph — sync and flush arcs included; at
// depth 1 too, model parallelism — is acyclic. So is it with the runtime's
// blocking all_reduce, which holds each replica's op after a backward
// until every replica with a minibatch in the same round (blocks of
// `replicas` minibatches from start) has run its backward, wherever the
// depth admits a whole round at all (a stage whose window is narrower than
// its replica count can never complete one, whatever the order).
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

		for _, c := range []struct {
			policy Policy
			a      *Assignment
		}{{PipeDream1F1B, a}, {GPipe, a}, {PipeDream1F1B, Assign(plan.AtDepth(1))}} {
			policy := c.policy
			table, err := Table(c.a, policy, start, end)
			if err != nil {
				t.Fatal(err)
			}
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
			g, err := Graph(c.a, policy, start, end)
			if err != nil {
				t.Fatal(err)
			}
			if !acyclic(g, nil) {
				t.Fatalf("%s %v at depth %d: the event graph has a cycle", desc, policy, c.a.Plan.Depth)
			}
		}

		wholeRounds := true
		for s, window := range plan.Windows() {
			wholeRounds = wholeRounds && window >= plan.Stages[s].Replicas
		}
		if !wholeRounds {
			continue
		}
		g, err := Graph(a, PipeDream1F1B, start, end)
		if err != nil {
			t.Fatal(err)
		}
		ring := map[int][]int{}
		for s, st := range plan.Stages {
			for first := start; st.Replicas > 1 && first < end; first += st.Replicas {
				for m := first; m < min(first+st.Replicas, end); m++ {
					after := g.at[s][Backward][m-start] + 1
					if after == len(g.Nodes) || g.Nodes[after].Worker != g.Nodes[after-1].Worker {
						continue // the replica's last op
					}
					for peer := first; peer < min(first+st.Replicas, end); peer++ {
						ring[g.at[s][Backward][peer-start]] = append(ring[g.at[s][Backward][peer-start]], after)
					}
				}
			}
		}
		if !acyclic(g, ring) {
			t.Fatalf("%s: the event graph with all_reduce coupling has a cycle", desc)
		}
	}
}
