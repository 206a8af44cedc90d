package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/tensor"
)

// branchServeConfig builds a server config for the branching stand-in's
// diamond-plus-two-heads plan. Serving only reads the plan's layer
// ranges and graph, so the plan is assembled directly.
func branchServeConfig(b *branching.Model) Config {
	return Config{
		Model: b.Factory(),
		Plan:  &partition.Plan{Stages: b.Stages, Graph: b.Graph},
	}
}

// TestInferHeadMatchesGraphForward checks per-head serving against the
// solo graph executor — the unfused reference forward: every head's
// answer must be bit-identical to ForwardGraphHead on the same weights,
// and Infer must mean "the default head".
func TestInferHeadMatchesGraphForward(t *testing.T) {
	b := branching.StandIn(11)
	cfg := branchServeConfig(b)
	model := cfg.Model
	plan := cfg.Plan
	s := mustServer(t, cfg)

	heads := s.Heads()
	if len(heads) != 2 || heads[0] != b.ClassHead || heads[1] != b.ParityHead {
		t.Fatalf("Heads() = %v, want [%d %d]", heads, b.ClassHead, b.ParityHead)
	}
	if s.DefaultHead() != b.ParityHead {
		t.Fatalf("DefaultHead() = %d, want %d (last stage)", s.DefaultHead(), b.ParityHead)
	}
	x := testInput(3, 5)
	for _, h := range heads {
		want, err := pipeline.ForwardGraphHead(model, plan, x, h)
		if err != nil {
			t.Fatalf("head %d: reference: %v", h, err)
		}
		got, err := s.InferHead(x, h)
		if err != nil {
			t.Fatalf("head %d: InferHead: %v", h, err)
		}
		wantEqual(t, got, want)
	}
	// Infer targets the default head.
	wantDefault, err := pipeline.ForwardGraphHead(model, plan, x, s.DefaultHead())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantEqual(t, got, wantDefault)
}

// TestInferHeadRejectsNonSink requires ErrBadRequest for heads that are
// not sinks of the stage graph — interior stages and out-of-range ids.
func TestInferHeadRejectsNonSink(t *testing.T) {
	b := branching.StandIn(12)
	s := mustServer(t, branchServeConfig(b))
	x := testInput(4, 2)
	for _, h := range []int{0, 1, 2, -1, 99} {
		if _, err := s.InferHead(x, h); !errors.Is(err, ErrBadRequest) {
			t.Errorf("head %d: err = %v, want ErrBadRequest", h, err)
		}
	}
}

// TestInferHeadSkipsUnusedBranch checks that a request for one head
// never executes stages outside that head's ancestor set: after serving
// class-head traffic only, the parity head's forward counter must still
// be zero (and vice versa).
func TestInferHeadSkipsUnusedBranch(t *testing.T) {
	b := branching.StandIn(13)
	s := mustServer(t, branchServeConfig(b))
	x := testInput(5, 3)
	if _, err := s.InferHead(x, b.ClassHead); err != nil {
		t.Fatal(err)
	}
	if n := s.met.stageForward[b.ParityHead].Count(); n != 0 {
		t.Fatalf("parity head ran %d forwards during class-head traffic", n)
	}
	if n := s.met.stageForward[b.ClassHead].Count(); n == 0 {
		t.Fatal("class head never ran")
	}
	before := s.met.stageForward[b.ClassHead].Count()
	if _, err := s.InferHead(x, b.ParityHead); err != nil {
		t.Fatal(err)
	}
	if n := s.met.stageForward[b.ClassHead].Count(); n != before {
		t.Fatalf("class head ran during parity-head traffic (%d → %d forwards)", before, n)
	}
	if n := s.met.stageForward[b.ParityHead].Count(); n == 0 {
		t.Fatal("parity head never ran")
	}
}

// TestInferHeadConcurrentMixedHeads hammers both heads from concurrent
// submitters — the batcher must keep heads in separate batches and every
// response must match its head's reference output exactly.
func TestInferHeadConcurrentMixedHeads(t *testing.T) {
	b := branching.StandIn(14)
	cfg := branchServeConfig(b)
	cfg.MaxBatch = 4 // force multi-request batches and splits
	model := cfg.Model
	plan := cfg.Plan
	s := mustServer(t, cfg)

	heads := s.Heads()
	want := make(map[int]*tensor.Tensor, len(heads))
	x := testInput(6, 3)
	for _, h := range heads {
		ref, err := pipeline.ForwardGraphHead(model, plan, x, h)
		if err != nil {
			t.Fatal(err)
		}
		want[h] = ref
	}
	var wg sync.WaitGroup
	errc := make(chan error, 40)
	for i := 0; i < 40; i++ {
		h := heads[i%len(heads)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.InferHead(x, h)
			if err != nil {
				errc <- fmt.Errorf("head %d: %w", h, err)
				return
			}
			if len(got.Data) != len(want[h].Data) {
				errc <- fmt.Errorf("head %d: %d values, want %d", h, len(got.Data), len(want[h].Data))
				return
			}
			for j := range got.Data {
				if got.Data[j] != want[h].Data[j] {
					errc <- fmt.Errorf("head %d: value %d = %v, want %v", h, j, got.Data[j], want[h].Data[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
