package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
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

// TestSwapSoakOnDAGPlans is TestSwapSoak on the diamond and the two-head
// plans of TestPoolBalanceAfterTraffic: every stage runs the version its
// batch was stamped with, fan-in joins included. Clients on every head
// call InferVersioned while a swapper advances the generation, each
// generation's weights differing at every stage with parameters; every
// answer must be bit-equal to the graph executor's on the stamped
// generation's model, and once traffic stops the server refers to one
// version again.
func TestSwapSoakOnDAGPlans(t *testing.T) {
	const gens = 8
	const clients = 6
	// withGen perturbs every parameter tensor by the generation, so a batch
	// that ran any stage on another generation's weights answers otherwise.
	withGen := func(m *nn.Sequential, gen int) *nn.Sequential {
		for _, p := range m.Params() {
			p.Data[0] += 0.25 * float32(gen)
		}
		return m
	}
	branch := branching.StandIn(31)
	for _, tc := range []struct {
		name  string
		model func(gen int) *nn.Sequential
		plan  *partition.Plan
		row   []int // a request row's shape
	}{
		{"diamond", func(gen int) *nn.Sequential {
			rng := rand.New(rand.NewSource(31))
			return withGen(nn.NewSequential(nn.NewTanh("stem"), nn.NewFlatten("flat"), nn.NewLastStep("last"), nn.NewDense(rng, "head", 2, 3)), gen)
		}, &partition.Plan{Stages: []partition.StageSpec{{FirstLayer: 0, LastLayer: 0, Replicas: 1},
			{FirstLayer: 1, LastLayer: 1, Replicas: 1}, {FirstLayer: 2, LastLayer: 2, Replicas: 1}, {FirstLayer: 3, LastLayer: 3, Replicas: 1}},
			Graph: &partition.StageGraph{Nodes: 4,
				Edges: []partition.StageEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
				Joins: []partition.JoinOp{3: partition.JoinSum}}},
			[]int{1, 2}},
		{"two-head", func(gen int) *nn.Sequential { return withGen(branch.Factory(), gen) },
			&partition.Plan{Stages: branch.Stages, Graph: branch.Graph}, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustServer(t, Config{Model: tc.model(0), Plan: tc.plan, MaxBatch: 4,
				BatchTimeout: 200 * time.Microsecond})
			heads := s.Heads()
			swapsDone := make(chan struct{})
			go func() {
				defer close(swapsDone)
				for g := 1; g <= gens; g++ {
					if err := s.SwapModel(tc.model(g), g); err != nil {
						t.Errorf("swap to %d: %v", g, err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				head := heads[c%len(heads)]
				x := tensor.RandUniform(rand.New(rand.NewSource(int64(100+c))), -1, 1, append([]int{1 + c%3}, tc.row...)...)
				wants := make([]*tensor.Tensor, gens+1)
				for g := range wants {
					var err error
					if wants[g], err = pipeline.ForwardGraphHead(tc.model(g), tc.plan, x, head); err != nil {
						t.Fatal(err)
					}
				}
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for done := false; !done; {
						select {
						case <-swapsDone:
							done = true
						default:
						}
						y, gen, err := s.InferHeadVersioned(x, head)
						if err != nil {
							t.Errorf("client %d head %d: %v", c, head, err)
							return
						}
						if gen < 0 || gen > gens {
							t.Errorf("client %d head %d: answer stamped with unknown generation %d", c, head, gen)
							return
						}
						want := wants[gen]
						if len(y.Data) != len(want.Data) {
							t.Errorf("client %d head %d gen %d: %d values, want %d", c, head, gen, len(y.Data), len(want.Data))
							return
						}
						for i := range want.Data {
							if math.Float32bits(y.Data[i]) != math.Float32bits(want.Data[i]) {
								t.Errorf("client %d head %d gen %d: output[%d] = %v, want %v (weights mixed across generations?)",
									c, head, gen, i, y.Data[i], want.Data[i])
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			if g := s.WeightGeneration(); g != gens {
				t.Fatalf("WeightGeneration = %d, want %d", g, gens)
			}
			if st := s.Stats(); st.Errors != 0 {
				t.Fatalf("errors during soak: %d", st.Errors)
			}
			deadline := time.Now().Add(2 * time.Second)
			for s.liveVersions() > 1 {
				if time.Now().After(deadline) {
					t.Fatalf("liveVersions = %d after quiescence, want 1", s.liveVersions())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
