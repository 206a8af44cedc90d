package pipeline

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
)

// branchPlan builds the plan for the branching stand-in's diamond graph.
func branchPlan(t *testing.T, b *branching.Model) *partition.Plan {
	t.Helper()
	prof := syntheticProfileFor(b.Factory())
	plan, err := partition.NewPlan(prof, topology.Flat(len(b.Stages), 1e9, topology.V100),
		partition.PlanOptions{Stages: b.Stages, Graph: b.Graph})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestBranchGraphPipelineMatchesReference trains the branching stand-in
// at depth 1 (no staleness) and checks losses and final weights exactly
// against a hand-rolled single-process DAG trainer.
func TestBranchGraphPipelineMatchesReference(t *testing.T) {
	const minibatches = 20
	b := branching.StandIn(5)
	plan := branchPlan(t, b)
	plan.Depth = 1
	g := plan.Graph

	// Reference: explicit topological forward, per-sink losses, reverse
	// topological backward with ascending-source gradient summation —
	// the same operation order the runtime uses.
	ref := b.Factory()
	nStages := len(b.Stages)
	refStages := make([]*nn.Sequential, nStages)
	refOpts := make([]nn.Optimizer, nStages)
	for s, spec := range b.Stages {
		refStages[s] = ref.Slice(spec.FirstLayer, spec.LastLayer+1)
		refOpts[s] = b.NewOptimizer()
	}
	var refLosses []float64
	for mb := 0; mb < minibatches; mb++ {
		batch := b.Train.Batch(mb)
		outs := make([]*tensor.Tensor, nStages)
		ctxs := make([]*nn.SeqContext, nStages)
		for s := 0; s < nStages; s++ {
			var in *tensor.Tensor
			preds := g.Preds(s)
			switch len(preds) {
			case 0:
				in = batch.X
			case 1:
				in = outs[preds[0]]
			default: // sum join
				in = outs[preds[0]].Clone()
				for _, p := range preds[1:] {
					in.Add(outs[p])
				}
			}
			outs[s], ctxs[s] = refStages[s].Forward(in, true)
		}
		closs, cgrad := nn.SoftmaxCrossEntropy(outs[b.ClassHead], batch.Labels)
		ploss, pgrad := branching.ParityLoss(outs[b.ParityHead], batch.Labels)
		refLosses = append(refLosses, closs+ploss)
		pend := map[int]map[int]*tensor.Tensor{ // stage → source → gradient
			b.ClassHead:  {nStages: cgrad},
			b.ParityHead: {nStages: pgrad},
		}
		for s := nStages - 1; s >= 0; s-- {
			srcs := make([]int, 0, len(pend[s]))
			for src := range pend[s] {
				srcs = append(srcs, src)
			}
			sort.Ints(srcs)
			gout := pend[s][srcs[0]]
			if len(srcs) > 1 {
				gout = gout.Clone()
				for _, src := range srcs[1:] {
					gout.Add(pend[s][src])
				}
			}
			gin := refStages[s].Backward(ctxs[s], gout)
			refOpts[s].Step(refStages[s].Params(), refStages[s].Grads())
			for _, p := range g.Preds(s) {
				if pend[p] == nil {
					pend[p] = make(map[int]*tensor.Tensor)
				}
				pend[p][s] = gin // sum join backward: identity per edge
			}
		}
	}

	p, err := New(Options{
		ModelFactory: b.Factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		SinkLoss:     map[int]LossFunc{b.ParityHead: branching.ParityLoss},
		NewOptimizer: b.NewOptimizer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(b.Train, minibatches)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refLosses {
		if math.Abs(rep.Losses[i]-want) > 1e-12 {
			t.Fatalf("loss[%d] = %v, reference %v", i, rep.Losses[i], want)
		}
	}
	for s := range b.Stages {
		got := p.StageModel(s, 0).Params()
		want := refStages[s].Params()
		for pi := range want {
			for j := range want[pi].Data {
				if got[pi].Data[j] != want[pi].Data[j] {
					t.Fatalf("stage %d param %d elem %d = %v, reference %v",
						s, pi, j, got[pi].Data[j], want[pi].Data[j])
				}
			}
		}
	}
}

// TestBranchGraphTrainsAtNOAM runs the branching model end to end at the
// plan's own depth (several minibatches in flight across the DAG) and
// requires the summed two-head loss to drop.
func TestBranchGraphTrainsAtNOAM(t *testing.T) {
	b := branching.StandIn(9)
	p, err := New(Options{
		ModelFactory: b.Factory,
		Plan:         branchPlan(t, b),
		Loss:         nn.SoftmaxCrossEntropy,
		SinkLoss:     map[int]LossFunc{b.ParityHead: branching.ParityLoss},
		NewOptimizer: b.NewOptimizer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(b.Train, 40)
	if err != nil {
		t.Fatal(err)
	}
	head := mean(rep.Losses[:10])
	tail := mean(rep.Losses[len(rep.Losses)-10:])
	if !(tail < head) {
		t.Fatalf("two-head loss did not drop: first 10 mean %v, last 10 mean %v", head, tail)
	}
}

// TestForwardGraphHeadMatchesFullGraph checks the solo graph executor:
// the full-graph pass and the per-head ancestor-only pass must produce
// identical sink outputs, and a linear plan must match plain Forward.
func TestForwardGraphHeadMatchesFullGraph(t *testing.T) {
	b := branching.StandIn(3)
	plan := branchPlan(t, b)
	model := b.Factory()
	x := b.Eval.Batch(0).X

	all, err := ForwardGraph(model, plan, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("got %d sink outputs, want 2", len(all))
	}
	for _, sink := range []int{b.ClassHead, b.ParityHead} {
		y, err := ForwardGraphHead(model, plan, x, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !y.SameShape(all[sink]) {
			t.Fatalf("sink %d: head shape %v vs full %v", sink, y.Shape, all[sink].Shape)
		}
		for i := range y.Data {
			if y.Data[i] != all[sink].Data[i] {
				t.Fatalf("sink %d: elem %d differs between head and full pass", sink, i)
			}
		}
	}
	if _, err := ForwardGraphHead(model, plan, x, 2); err == nil {
		t.Fatal("ForwardGraphHead accepted a non-sink stage")
	}

	lin := mlpFactory(4, 4, 8, 3)()
	linPlan := evenPlan(t, func() *nn.Sequential { return lin }, 2, 1)
	lx := tensor.Randn(rand.New(rand.NewSource(1)), 1, 6, 4)
	want, _ := lin.Forward(lx, false)
	got, err := ForwardGraph(lin, linPlan, lx)
	if err != nil {
		t.Fatal(err)
	}
	out := got[len(linPlan.Stages)-1]
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("linear ForwardGraph elem %d = %v, Forward %v", i, out.Data[i], want.Data[i])
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
