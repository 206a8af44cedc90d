package pipeline

import (
	"math/rand"
	"sync"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// This test verifies the runtime's staleness semantics against §3.3 of
// the paper. For a straight pipeline with n stages the idealized 1F1B
// schedule computes
//
//	w(t+1) = w(t) − ν·∇f(w1^(t−n+1), w2^(t−n+2), ..., wn^(t))
//
// — stage i (1-based) sees weights n−i+1 updates old. The real runtime is
// asynchronous: when gradients bunch, a stage may apply several backward
// passes before its next forward, making versions *fresher* than the
// ideal schedule, but never staler. The guarantees that must hold are
// therefore:
//
//  1. bounded staleness: every forward uses a version at most the
//     plan's depth in updates behind the newest possible (the paper's "bounded staleness
//     has been found effective" property);
//  2. the output stage always uses the freshest weights (staleness
//     exactly 1: its own previous minibatch's update is applied, because
//     backward priority runs B(t−1) before F(t));
//  3. staleness does not increase toward the output stage.
//
// Weight versions are observed by instrumenting each stage's first Dense
// layer and reconstructing the version index from per-stage update
// histories recorded by a wrapped optimizer.

// recordingOpt wraps an optimizer and logs the first parameter's leading
// value after every update.
type recordingOpt struct {
	nn.Optimizer
	mu      *sync.Mutex
	history *[]float32
}

func (r *recordingOpt) StepInto(next, cur, grads []*tensor.Tensor) {
	r.Optimizer.StepInto(next, cur, grads)
	r.mu.Lock()
	*r.history = append(*r.history, next[0].Data[0])
	r.mu.Unlock()
}

// fwdRecorder wraps Dense and reports W[0] at every forward call.
type fwdRecorder struct {
	*nn.Dense
	onForward func(w float32)
}

func (f *fwdRecorder) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	f.onForward(f.Dense.W.Data[0])
	return f.Dense.Forward(x, train)
}

func TestStalenessBoundedPerPaperFormula(t *testing.T) {
	const (
		nStages     = 3
		minibatches = 40
	)
	// Six layers split into three 2-layer stages, each starting with a
	// Dense layer whose W[0] identifies the stage's weight version.
	factory := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(77))
		return nn.NewSequential(
			nn.NewDense(rng, "s0", 4, 8),
			nn.NewTanh("t0"),
			nn.NewDense(rng, "s1", 8, 8),
			nn.NewTanh("t1"),
			nn.NewDense(rng, "s2", 8, 3),
			nn.NewTanh("t2"),
		)
	}
	ds := data.NewBlobs(79, 3, 4, 8, minibatches)

	// Workers are constructed in stage order for a straight pipeline, so
	// the k-th optimizer belongs to stage k.
	var mu sync.Mutex
	histories := make([]*[]float32, 0, nStages)
	newOpt := func() nn.Optimizer {
		mu.Lock()
		h := &[]float32{}
		histories = append(histories, h)
		mu.Unlock()
		return &recordingOpt{Optimizer: nn.NewSGD(0.1, 0, 0), mu: &mu, history: h}
	}

	plan := evenPlan(t, factory, nStages, 1)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: newOpt,
		Mode:         WeightStashing,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	initials := make([]float32, nStages)
	recorded := make([][]float32, nStages)
	var recMu sync.Mutex
	for s := 0; s < nStages; s++ {
		model := p.StageModel(s, 0)
		initials[s] = model.Params()[0].Data[0]
		for li, l := range model.Layers {
			d, ok := l.(*nn.Dense)
			if !ok {
				continue
			}
			s := s
			model.Layers[li] = &fwdRecorder{Dense: d, onForward: func(w float32) {
				recMu.Lock()
				recorded[s] = append(recorded[s], w)
				recMu.Unlock()
			}}
			break // only the stage's first Dense
		}
	}

	if _, err := p.Train(ds, minibatches); err != nil {
		t.Fatal(err)
	}

	depth := p.Plan().Depth // nStages for an even straight pipeline
	maxStale := make([]int, nStages)
	for s := 0; s < nStages; s++ {
		hist := *histories[s]
		if len(hist) != minibatches {
			t.Fatalf("stage %d applied %d updates, want %d", s, len(hist), minibatches)
		}
		if len(recorded[s]) != minibatches {
			t.Fatalf("stage %d recorded %d forwards, want %d", s, len(recorded[s]), minibatches)
		}
		// versionOf maps a W[0] value to "number of updates applied"
		// (0 = initial). With lr 0.1 and dense gradients, values are
		// distinct in practice; scan from the freshest so duplicates
		// resolve to the newest (smallest staleness), which can only
		// make the staleness bound harder to satisfy accidentally.
		versionOf := func(w float32, upTo int) int {
			for u := upTo; u >= 1; u-- {
				if hist[u-1] == w {
					return u
				}
			}
			if w == initials[s] {
				return 0
			}
			return -1
		}
		for mb, w := range recorded[s] {
			v := versionOf(w, mb) // can't have seen updates from mb itself onward
			if v < 0 {
				t.Fatalf("stage %d mb %d: forward used an unknown weight version", s, mb)
			}
			stale := mb - v + 1 // update mb+1 computed with version v ⇒ staleness mb+1-v
			if stale < 1 || stale > depth {
				t.Fatalf("stage %d mb %d: staleness %d outside [1, depth %d]", s, mb, stale, depth)
			}
			if mb >= depth && stale > maxStale[s] {
				maxStale[s] = stale
			}
		}
	}
	// The output stage must always be exactly 1 step stale (backward
	// priority applies B(t-1) before F(t)).
	if maxStale[nStages-1] != 1 {
		t.Fatalf("output stage max staleness %d, want exactly 1", maxStale[nStages-1])
	}
	// Staleness never increases toward the output stage, and the input
	// stage reaches the formula's bound (n) at least once in steady
	// state.
	for s := 1; s < nStages; s++ {
		if maxStale[s] > maxStale[s-1] {
			t.Fatalf("staleness increased along the pipeline: stage %d %d > stage %d %d",
				s, maxStale[s], s-1, maxStale[s-1])
		}
	}
	if maxStale[0] < 2 {
		t.Fatalf("input stage max staleness %d; pipelining should induce ≥2", maxStale[0])
	}
}
