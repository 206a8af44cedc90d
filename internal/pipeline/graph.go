package pipeline

import (
	"fmt"
	"sort"

	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
)

// This file is the dataflow-graph arm of the runtime: joining fan-in
// activations, splitting join gradients back per edge, summing fan-out
// gradients, and a single-process reference executor (ForwardGraph) that
// serving and tests compare the distributed runtime against.

// joinPending materializes a fan-in stage's input for one minibatch from
// the held per-edge activations, in ascending predecessor order. It
// returns the joined tensor and, for JoinConcat, each predecessor's
// feature width (needed to split the gradient on the way back).
func (sw *stageWorker) joinPending(mb int) (*tensor.Tensor, []int, error) {
	pend := sw.fwdPend[mb]
	if len(pend) != len(sw.preds) {
		return nil, nil, fmt.Errorf("pipeline: worker %d joining mb %d with %d of %d inputs",
			sw.id, mb, len(pend), len(sw.preds))
	}
	parts := make([]*tensor.Tensor, len(sw.preds))
	for i, p := range sw.preds {
		parts[i] = pend[p].Tensor
	}
	delete(sw.fwdPend, mb)
	joined, widths, err := sw.join.Apply(parts)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: worker %d mb %d: %w", sw.id, mb, err)
	}
	// The per-edge arrivals are finished, but the one a sum was added into.
	for _, part := range parts {
		if part != joined {
			tensor.Put(part)
		}
	}
	return joined, widths, nil
}

// sumPendingGrads combines the per-successor gradients held for one
// minibatch at a fan-out stage (all of them have arrived: that is what
// made the backward ready), summing in ascending successor order for
// determinism.
func (sw *stageWorker) sumPendingGrads(mb int) *tensor.Tensor {
	pend := sw.gradPend[mb]
	delete(sw.gradPend, mb)
	srcs := make([]int, 0, len(pend))
	for s := range pend {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	// A fan-out stage has at least two successors. The sum is added into
	// the first gradient, this worker's (released when the backward ends).
	sum := pend[srcs[0]]
	for _, s := range srcs[1:] {
		sum.Add(pend[s])
		tensor.Put(pend[s])
	}
	return sum
}

// splitJoinGrad routes the gradient w.r.t. a stage's (joined) input back
// to its predecessors: pass-through for a single edge, the same tensor
// for every edge of a sum join, and a per-edge column slice for a concat
// join. The result is aligned with preds.
func splitJoinGrad(op partition.JoinOp, grad *tensor.Tensor, preds []int, widths []int) ([]*tensor.Tensor, error) {
	if len(preds) <= 1 {
		return []*tensor.Tensor{grad}, nil
	}
	switch op {
	case partition.JoinSum:
		out := make([]*tensor.Tensor, len(preds))
		for i := range preds {
			// d(sum)/d(part) = identity: every edge is sent the same gradient.
			out[i] = grad
		}
		return out, nil
	case partition.JoinConcat:
		if len(widths) != len(preds) {
			return nil, fmt.Errorf("concat split has %d widths for %d edges", len(widths), len(preds))
		}
		rows := grad.Dim(0)
		total := grad.Size() / rows
		out := make([]*tensor.Tensor, len(preds))
		off := 0
		for i, w := range widths {
			piece := tensor.GetRaw(rows, w)
			for r := 0; r < rows; r++ {
				copy(piece.Data[r*w:(r+1)*w], grad.Data[r*total+off:r*total+off+w])
			}
			out[i] = piece
			off += w
		}
		return out, nil
	default:
		return nil, fmt.Errorf("split over join op %v with %d edges", op, len(preds))
	}
}

// ForwardGraph runs a forward pass of the full model through the plan's
// stage graph in one process — the reference the distributed runtime and
// the serving path are compared against — and returns every sink stage's
// output keyed by stage index. For a linear plan this equals
// model.Forward.
func ForwardGraph(model *nn.Sequential, plan *partition.Plan, x *tensor.Tensor) (map[int]*tensor.Tensor, error) {
	g := plan.Graph
	sinks := g.Sinks()
	act := make(map[int]bool, g.Nodes)
	for i := 0; i < g.Nodes; i++ {
		act[i] = true
	}
	outs, err := forwardActive(model, plan, g, x, act)
	if err != nil {
		return nil, err
	}
	res := make(map[int]*tensor.Tensor, len(sinks))
	for _, s := range sinks {
		res[s] = outs[s]
	}
	return res, nil
}

// ForwardGraphHead runs the forward pass only through the ancestors of
// one sink stage — the per-head inference path that skips branches the
// requested head does not depend on — and returns that sink's output.
func ForwardGraphHead(model *nn.Sequential, plan *partition.Plan, x *tensor.Tensor, sink int) (*tensor.Tensor, error) {
	g := plan.Graph
	if sink < 0 || sink >= g.Nodes || len(g.Succs(sink)) != 0 {
		return nil, fmt.Errorf("pipeline: stage %d is not a sink of the plan graph", sink)
	}
	outs, err := forwardActive(model, plan, g, x, g.Ancestors(sink))
	if err != nil {
		return nil, err
	}
	return outs[sink], nil
}

// forwardActive evaluates the graph over the active node set (which must
// be closed under predecessors), in topological order.
func forwardActive(model *nn.Sequential, plan *partition.Plan, g *partition.StageGraph, x *tensor.Tensor, active map[int]bool) (map[int]*tensor.Tensor, error) {
	stages, err := plan.StageSlices(model)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	outs := make(map[int]*tensor.Tensor, len(active))
	for s := 0; s < g.Nodes; s++ {
		if !active[s] {
			continue
		}
		var in *tensor.Tensor
		preds := g.Preds(s)
		switch len(preds) {
		case 0:
			in = x
		case 1:
			in = outs[preds[0]]
		default:
			parts := make([]*tensor.Tensor, len(preds))
			for i, p := range preds {
				parts[i] = outs[p]
			}
			parts[0] = parts[0].Clone() // a sum is added into it
			if in, _, err = g.Join(s).Apply(parts); err != nil {
				return nil, fmt.Errorf("pipeline: stage %d: %w", s, err)
			}
		}
		y, _ := stages[s].Forward(in, false)
		outs[s] = y
	}
	return outs, nil
}
