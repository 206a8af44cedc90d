package cliconf

import (
	"testing"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
)

// TestServePlanReadsNoTrainingData holds pipedream-serve's start-up to
// what serving runs: the first Eval batch it reads for its input shape,
// and a forward profile of it. The training set is never generated, the
// profile's tensors all go back to the pool, and a training plan of the
// same task still generates it.
func TestServePlanReadsNoTrainingData(t *testing.T) {
	mdl := &Model{Task: "images", Seed: 42, Stages: 2, Replicas: 1}
	task, err := mdl.Build()
	if err != nil {
		t.Fatal(err)
	}
	task.Eval.Batch(0)
	train, read := task.Train.(*lazy), false
	generate := train.get
	train.get = func() data.Dataset { read = true; return generate() }
	hits, misses, puts := tensor.PoolCounters()
	if _, err := mdl.ServePlan(task); err != nil {
		t.Fatal(err)
	}
	h, m, p := tensor.PoolCounters()
	if held := h + m - hits - misses - (p - puts); held != 0 {
		t.Errorf("the serving profile kept %d pooled tensors", held)
	}
	if read {
		t.Fatal("planning a server read the training set")
	}
	if _, err := mdl.Plan(task); err != nil {
		t.Fatal(err)
	}
	if !read {
		t.Fatal("a training plan profiled without reading the training set")
	}
}

// sleepLayer takes fwd to run forward and bwd to run backward; it has one
// parameter, so an input stage runs its Backward too.
type sleepLayer struct {
	name     string
	fwd, bwd time.Duration
	w, g     *tensor.Tensor
}

func newSleepLayer(name string, fwd, bwd time.Duration) *sleepLayer {
	return &sleepLayer{name: name, fwd: fwd, bwd: bwd, w: tensor.New(1), g: tensor.New(1)}
}

func (l *sleepLayer) Name() string { return l.name }

func (l *sleepLayer) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, nn.Context) {
	time.Sleep(l.fwd)
	return x, nil
}

func (l *sleepLayer) Backward(_ nn.Context, gradOut *tensor.Tensor) *tensor.Tensor {
	time.Sleep(l.bwd)
	return gradOut
}

func (l *sleepLayer) Params() []*tensor.Tensor { return []*tensor.Tensor{l.w} }
func (l *sleepLayer) Grads() []*tensor.Tensor  { return []*tensor.Tensor{l.g} }

// TestServePlanCutsTheForwardPass: on a model whose first layer's backward
// dominates, the training planner gives that layer a stage of its own,
// and the serving planner balances the forward pass, where it is free.
func TestServePlanCutsTheForwardPass(t *testing.T) {
	const ms = time.Millisecond
	ds := data.NewBlobs(1, 2, 4, 8, 2)
	task := &Task{
		Factory: func() *nn.Sequential {
			return nn.NewSequential(newSleepLayer("a", 0, 6*ms), newSleepLayer("b", 2*ms, 0), newSleepLayer("c", 2*ms, 0))
		},
		Train: ds,
		Eval:  ds,
	}
	mdl := &Model{Task: "sleep", Stages: 2, Replicas: 1}
	for _, tc := range []struct {
		name string
		plan func(*Task) (*partition.Plan, error)
		want string
	}{
		{"Plan", mdl.Plan, "a..a | b..c"},
		{"ServePlan", mdl.ServePlan, "a..b | c..c"},
	} {
		plan, err := tc.plan(task)
		if err != nil {
			t.Fatal(err)
		}
		if got := Cuts(plan, task.Factory()); got != tc.want {
			t.Errorf("%s cut %s, want %s", tc.name, got, tc.want)
		}
	}
}
