package branching

import (
	"math/rand"

	"pipedream/internal/data"
	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
)

// Model is a modelzoo.StandIn whose stages form a DAG rather than a chain:
// a residual diamond (the trunk sums the stem's output with a transformed
// branch) feeding two task heads that each compute their own loss. It is
// the reference workload for the stage-graph runtime — multi-input joins,
// broadcast fan-out, and per-sink losses all appear in one small model.
//
// The model is still one nn.Sequential; the graph assigns its contiguous
// layer ranges (Stages, in node order) to DAG nodes:
//
//	0 stem ──▶ 1 branch ──▶ 2 trunk(+) ──▶ 3 class head (sink)
//	   └──────────────────────▲  └───────▶ 4 parity head (sink)
type Model struct {
	*modelzoo.StandIn
	// Stages are the layer ranges of the graph's nodes, in node order.
	Stages []partition.StageSpec
	// Graph is the stage DAG: 0→1, 0→2, 1→2 (sum join), 2→3, 2→4.
	Graph *partition.StageGraph
	// ClassHead and ParityHead are the two sink stages: 3-way spiral class
	// logits and 2-way label-parity logits.
	ClassHead, ParityHead int
}

// StandIn builds the branching (DAG) stand-in. Pass Stages and
// Graph to partition.NewPlan to get a runnable plan; wire ParityLoss as
// the parity sink's loss via pipeline Options.SinkLoss.
func StandIn(seed int64) *Model {
	return &Model{
		StandIn: &modelzoo.StandIn{
			Name: "branch-spiral",
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					// stage 0: stem
					nn.NewDense(rng, "stem", 2, 24),
					nn.NewTanh("stem_t"),
					// stage 1: residual branch
					nn.NewDense(rng, "branch", 24, 24),
					nn.NewTanh("branch_t"),
					// stage 2: trunk (input = stem + branch via sum join)
					nn.NewDense(rng, "trunk", 24, 24),
					nn.NewTanh("trunk_t"),
					// stage 3: class head (sink)
					nn.NewDense(rng, "class_head", 24, 3),
					// stage 4: parity head (sink)
					nn.NewDense(rng, "parity_head", 24, 2),
				)
			},
			Train: data.NewSpiral(seed+1, 3, 16, 40),
			Eval:  data.NewSpiral(seed+2, 3, 32, 8),
			// Gentler than the linear stand-ins: the residual sum join
			// doubles the gradient path into the stem, and the DAG's
			// depth adds staleness on top.
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.03, 0.9, 0) },
		},
		Stages: []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 1, Replicas: 1},
			{FirstLayer: 2, LastLayer: 3, Replicas: 1},
			{FirstLayer: 4, LastLayer: 5, Replicas: 1},
			{FirstLayer: 6, LastLayer: 6, Replicas: 1},
			{FirstLayer: 7, LastLayer: 7, Replicas: 1},
		},
		Graph: &partition.StageGraph{
			Nodes: 5,
			Edges: []partition.StageEdge{
				{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
				{From: 2, To: 3}, {From: 2, To: 4},
			},
			Joins: []partition.JoinOp{2: partition.JoinSum},
		},
		ClassHead:  3,
		ParityHead: 4,
	}
}

// ParityLoss scores the 2-way parity head: softmax cross-entropy against
// each label's parity. Labels ride unchanged with the minibatch, so any
// sink can derive its own target from them.
func ParityLoss(pred *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	par := make([]int, len(labels))
	for i, l := range labels {
		par[i] = l % 2
	}
	return nn.SoftmaxCrossEntropy(pred, par)
}
