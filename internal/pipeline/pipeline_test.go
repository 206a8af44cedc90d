package pipeline

import (
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// mlpFactory returns a deterministic 4-layer MLP factory for `classes`
// classes over `dim` inputs.
func mlpFactory(seed int64, dim, hidden, classes int) func() *nn.Sequential {
	return func() *nn.Sequential {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewSequential(
			nn.NewDense(rng, "fc1", dim, hidden),
			nn.NewTanh("t1"),
			nn.NewDense(rng, "fc2", hidden, hidden),
			nn.NewTanh("t2"),
			nn.NewDense(rng, "fc3", hidden, classes),
		)
	}
}

func evenPlan(t *testing.T, factory func() *nn.Sequential, stages int, replicasFirst int) *partition.Plan {
	t.Helper()
	model := factory()
	n := len(model.Layers)
	prof := syntheticProfileFor(model)
	var specs []partition.StageSpec
	per := n / stages
	first := 0
	for s := 0; s < stages; s++ {
		last := first + per - 1
		if s == stages-1 {
			last = n - 1
		}
		rep := 1
		if s == 0 {
			rep = replicasFirst
		}
		specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: last, Replicas: rep})
		first = last + 1
	}
	workers := stages - 1 + replicasFirst
	plan, err := partition.NewPlan(prof, topology.Flat(workers, 1e9, topology.V100), partition.PlanOptions{Stages: specs})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// syntheticProfileFor builds a trivially valid profile matching a model's
// layer count (the runtime only needs layer indices from the plan).
func syntheticProfileFor(model *nn.Sequential) *profile.ModelProfile {
	p := &profile.ModelProfile{Model: "test", MinibatchSize: 1, InputBytes: 4}
	for range model.Layers {
		p.Layers = append(p.Layers, profile.LayerProfile{
			Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4,
		})
	}
	return p
}

func TestSingleStageMatchesSequentialExactly(t *testing.T) {
	checkPipelineMatchesSequential(t, 1, 1) // a single stage's depth
}

func TestDepthOnePipelineMatchesSequentialExactly(t *testing.T) {
	// With one minibatch in flight there is no staleness: a multi-stage
	// pipeline must be numerically identical to sequential training.
	checkPipelineMatchesSequential(t, 3, 1)
}

func checkPipelineMatchesSequential(t *testing.T, stages, depth int) {
	t.Helper()
	factory := mlpFactory(7, 4, 8, 3)
	ds := data.NewBlobs(11, 3, 4, 8, 20)

	// Sequential reference.
	ref := factory()
	refOpt := nn.NewSGD(0.1, 0, 0)
	var refLosses []float64
	for mb := 0; mb < 20; mb++ {
		b := ds.Batch(mb)
		y, ctx := ref.Forward(b.X, true)
		loss, grad := nn.SoftmaxCrossEntropy(y, b.Labels)
		refLosses = append(refLosses, loss)
		ref.Backward(ctx, grad)
		refOpt.Step(ref.Params(), ref.Grads())
	}

	plan := evenPlan(t, factory, stages, 1)
	plan.Depth = depth
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refLosses {
		if math.Abs(rep.Losses[i]-want) > 1e-6 {
			t.Fatalf("loss[%d] = %v, sequential reference %v", i, rep.Losses[i], want)
		}
	}
	got := p.CollectModel().Params()
	want := ref.Params()
	for i := range want {
		if !got[i].AllClose(want[i], 1e-6) {
			t.Fatalf("param %d differs from sequential reference", i)
		}
	}
}

// versionProbe wraps a Dense layer and records whether the weights seen at
// backward differ from those used at forward for the same minibatch.
type versionProbe struct {
	*nn.Dense
	mismatches *atomic.Int64
	matches    *atomic.Int64
}

type probeCtx struct {
	inner nn.Context
	w0    float32
}

func (v *versionProbe) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	y, ctx := v.Dense.Forward(x, train)
	return y, probeCtx{inner: ctx, w0: v.Dense.W.Data[0]}
}

func (v *versionProbe) Backward(ctx nn.Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(probeCtx)
	if v.Dense.W.Data[0] == c.w0 {
		v.matches.Add(1)
	} else {
		v.mismatches.Add(1)
	}
	return v.Dense.Backward(c.inner, gradOut)
}

func probedFactory(seed int64, mismatches, matches *atomic.Int64) func() *nn.Sequential {
	return func() *nn.Sequential {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewSequential(
			&versionProbe{Dense: nn.NewDense(rng, "fc1", 4, 8), mismatches: mismatches, matches: matches},
			nn.NewTanh("t1"),
			nn.NewDense(rng, "fc2", 8, 8),
			nn.NewTanh("t2"),
			nn.NewDense(rng, "fc3", 8, 3),
		)
	}
}

func TestWeightStashingGuaranteesVersionMatch(t *testing.T) {
	var mismatches, matches atomic.Int64
	factory := probedFactory(3, &mismatches, &matches)
	ds := data.NewBlobs(5, 3, 4, 8, 40)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 3, 1), // probe layer is in stage 0
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Mode:         WeightStashing,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 40); err != nil {
		t.Fatal(err)
	}
	if mismatches.Load() != 0 {
		t.Fatalf("weight stashing saw %d version mismatches", mismatches.Load())
	}
	if matches.Load() != 40 {
		t.Fatalf("probe observed %d backwards, want 40", matches.Load())
	}
}

func TestNoStashingProducesVersionMismatches(t *testing.T) {
	// The naive pipeline computes backward passes against weights updated
	// by newer minibatches — exactly the discrepancy §3.3 describes.
	var mismatches, matches atomic.Int64
	factory := probedFactory(3, &mismatches, &matches)
	ds := data.NewBlobs(5, 3, 4, 8, 40)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 3, 1), // depth 3 in flight
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Mode:         NoStashing,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 40); err != nil {
		t.Fatal(err)
	}
	if mismatches.Load() == 0 {
		t.Fatal("naive pipelining should hit stale weights at the input stage")
	}
}

func TestVerticalSyncRunsAndPrunesVersions(t *testing.T) {
	factory := mlpFactory(9, 4, 8, 3)
	ds := data.NewBlobs(13, 3, 4, 8, 30)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 3, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Mode:         VerticalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 30); err != nil {
		t.Fatal(err)
	}
	for _, sw := range p.workers {
		if n := len(sw.weights.listed); n > p.Plan().Depth*2+3 {
			t.Fatalf("worker %d retains %d versions; pruning is broken", sw.id, n)
		}
	}
}

func TestVerticalSyncMatchesSequentialAtDepthOne(t *testing.T) {
	// Depth 1 vertical sync is also staleness-free.
	factory := mlpFactory(7, 4, 8, 3)
	ds := data.NewBlobs(11, 3, 4, 8, 10)
	ref := factory()
	refOpt := nn.NewSGD(0.1, 0, 0)
	var refLosses []float64
	for mb := 0; mb < 10; mb++ {
		b := ds.Batch(mb)
		y, ctx := ref.Forward(b.X, true)
		loss, grad := nn.SoftmaxCrossEntropy(y, b.Labels)
		refLosses = append(refLosses, loss)
		ref.Backward(ctx, grad)
		refOpt.Step(ref.Params(), ref.Grads())
	}
	plan := evenPlan(t, factory, 3, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Mode:         VerticalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refLosses {
		if math.Abs(rep.Losses[i]-want) > 1e-6 {
			t.Fatalf("vertical-sync loss[%d] = %v, want %v", i, rep.Losses[i], want)
		}
	}
}

func TestReplicatedStageKeepsReplicasConsistent(t *testing.T) {
	factory := mlpFactory(21, 4, 8, 3)
	ds := data.NewBlobs(23, 3, 4, 8, 24)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 2), // 2-1 configuration (Figure 8)
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 24); err != nil {
		t.Fatal(err)
	}
	a := p.StageModel(0, 0).Params()
	b := p.StageModel(0, 1).Params()
	for i := range a {
		if !a[i].AllClose(b[i], 1e-5) {
			t.Fatalf("replica params diverged at %d", i)
		}
	}
}

func TestReplicatedStageHandlesPartialFinalRound(t *testing.T) {
	// 25 minibatches across 2 replicas: the final all-reduce round has a
	// single participant and must not deadlock.
	factory := mlpFactory(21, 4, 8, 3)
	ds := data.NewBlobs(23, 3, 4, 8, 25)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 2),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 25); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineConvergesOnBlobs(t *testing.T) {
	factory := mlpFactory(31, 4, 16, 3)
	ds := data.NewBlobs(37, 3, 4, 16, 60)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 3, 2), // 2-1-1
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for epoch := 0; epoch < 4; epoch++ {
		if _, err := p.Train(ds, 60); err != nil {
			t.Fatal(err)
		}
	}
	model := p.CollectModel()
	correct, total := 0, 0
	for i := 0; i < 10; i++ {
		b := ds.Batch(i)
		y, _ := model.Forward(b.X, false)
		correct += int(nn.Accuracy(y, b.Labels) * float64(len(b.Labels)))
		total += len(b.Labels)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("pipelined training accuracy %v, want ≥0.9", acc)
	}
}

func TestTrainResumesAcrossCalls(t *testing.T) {
	factory := mlpFactory(41, 4, 8, 3)
	ds := data.NewBlobs(43, 3, 4, 8, 30)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r1, err := p.Train(ds, 15)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Train(ds, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Losses) != 15 || len(r2.Losses) != 15 {
		t.Fatalf("loss counts %d/%d, want 15/15", len(r1.Losses), len(r2.Losses))
	}
	// Later losses should generally be lower (learning happened).
	if r2.MeanLoss() >= r1.MeanLoss() {
		t.Fatalf("mean loss did not improve: %v → %v", r1.MeanLoss(), r2.MeanLoss())
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	factory := mlpFactory(51, 4, 8, 3)
	ds := data.NewBlobs(53, 3, 4, 8, 20)
	newPipe := func() *Pipeline {
		p, err := New(Options{
			ModelFactory: factory,
			Plan:         evenPlan(t, factory, 2, 1),
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := newPipe()
	defer p1.Close()
	if _, err := p1.Train(ds, 20); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pipedream-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := p1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	p2 := newPipe()
	defer p2.Close()
	if err := p2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	a := p1.CollectModel().Params()
	b := p2.CollectModel().Params()
	for i := range a {
		if !a[i].AllClose(b[i], 0) {
			t.Fatalf("restored param %d differs", i)
		}
	}
}

func TestRestoreMissingCheckpointFails(t *testing.T) {
	factory := mlpFactory(51, 4, 8, 3)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Restore(t.TempDir()); err == nil {
		t.Fatal("expected error restoring from empty dir")
	}
}

func TestPipelineOverTCPTransport(t *testing.T) {
	factory := mlpFactory(61, 4, 8, 3)
	ds := data.NewBlobs(67, 3, 4, 8, 12)
	tr, err := transport.NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Transport:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Train(ds, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range rep.Losses {
		if l == 0 {
			t.Fatalf("loss[%d] not recorded over TCP", i)
		}
	}
}

func TestPeakStashBytesReported(t *testing.T) {
	factory := mlpFactory(71, 4, 8, 3)
	ds := data.NewBlobs(73, 3, 4, 8, 20)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 3, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 20)
	if err != nil {
		t.Fatal(err)
	}
	for w, b := range rep.PeakStashBytes {
		if b <= 0 {
			t.Fatalf("worker %d peak stash = %d, want positive", w, b)
		}
	}
	// The input stage stashes more in-flight versions than the output
	// stage (depth vs 1).
	if rep.PeakStashBytes[0] <= rep.PeakStashBytes[len(rep.PeakStashBytes)-1]/4 {
		t.Fatalf("unexpected stash distribution: %v", rep.PeakStashBytes)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	factory := mlpFactory(1, 4, 8, 3)
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options must fail")
	}
	short := evenPlan(t, mlpFactory(1, 4, 8, 3), 2, 1)
	short.Stages[len(short.Stages)-1].LastLayer = 2 // model has 5 layers
	if _, err := New(Options{
		ModelFactory: factory,
		Plan:         short,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	}); err == nil {
		t.Fatal("plan/model mismatch must fail")
	}
}
