package serve

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/tensor"
)

// pooledInput is testInput as a front door hands it over: a pooled tensor
// the caller releases once Infer has returned a result.
func pooledInput(seed int64, rows int) *tensor.Tensor {
	src := testInput(seed, rows)
	x := tensor.GetRaw(src.Shape...)
	copy(x.Data, src.Data)
	return x
}

// TestRequestTensorIsCallersAfterInfer is the ownership rule the /infer
// handler relies on: when Infer returns a result, no stage reads the
// request tensor any more, so the caller may release it. Requests of one
// row (coalesced: copied out at dispatch), of exactly MaxBatch rows
// (passed through) and of more (split into zero-copy row-range aliases)
// run concurrently, each releasing its tensor as soon as it has its
// answer; with the pool poisoned, a stage that still read one would
// compute NaNs for somebody's bit-exact comparison.
func TestRequestTensorIsCallersAfterInfer(t *testing.T) {
	ref := testModel(21)
	s := mustServer(t, Config{Model: testModel(21), Plan: plan2(), InputShape: []int{2},
		MaxBatch: 4, BatchTimeout: 200 * time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				rows := []int{1, 4, 9, 2, 13}[(g+i)%5]
				seed := int64(g*1000 + i)
				x := pooledInput(seed, rows)
				y, err := s.Infer(x)
				if err != nil {
					t.Errorf("request %d/%d: %v", g, i, err)
					return
				}
				tensor.Put(x)
				want, _ := ref.Slice(0, len(ref.Layers)).Forward(testInput(seed, rows), false)
				for j := range want.Data {
					if y.Data[j] != want.Data[j] {
						t.Errorf("request %d/%d (%d rows): output %d = %v, want %v", g, i, rows, j, y.Data[j], want.Data[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseRacingPooledRequests: Close lands while split and whole
// requests are queued, dispatching and in the stages. Every request ends
// with a bit-exact result or ErrServerClosed, and a tensor is released
// only after a result — ErrServerClosed itself is delivered only once no
// stage worker runs, which is what lets a fleet retry the same tensor on
// another replica.
func TestCloseRacingPooledRequests(t *testing.T) {
	for round := 0; round < 20; round++ {
		ref := testModel(22)
		s, err := NewServer(Config{Model: testModel(22), Plan: plan2(), InputShape: []int{2},
			MaxBatch: 4, BatchTimeout: 100 * time.Microsecond, MaxInFlight: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					rows := []int{11, 1, 4, 7}[(g+i)%4]
					seed := int64(g*1000 + i)
					x := pooledInput(seed, rows)
					y, err := s.Infer(x)
					if errors.Is(err, ErrServerClosed) {
						return
					}
					if err != nil {
						t.Errorf("request %d/%d: %v", g, i, err)
						return
					}
					tensor.Put(x)
					want, _ := ref.Slice(0, len(ref.Layers)).Forward(testInput(seed, rows), false)
					for j := range want.Data {
						if y.Data[j] != want.Data[j] {
							t.Errorf("request %d/%d (%d rows): output %d = %v, want %v", g, i, rows, j, y.Data[j], want.Data[j])
							return
						}
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 300 * time.Microsecond)
		s.Close()
		wg.Wait()
	}
}

// TestPoolBalanceAfterTraffic: serving gives back what it takes from the
// buffer pool. A stage worker runs the training forward — Forward(x,
// false), then Discard — and releases its output and its input, once when
// the output is a view of the input; a fan-in stage releases its parts
// and, after the forward, the join. Coalesced traffic goes through a
// linear plan whose first stage is a Flatten (its output a view of its
// input), a diamond whose branches are a view and a gather and whose sum
// join fails for requests of two time steps, and the two-head branching
// plan; one request in five is poisoned by its failing stage or join and
// must fail naming it. With every good answer bit-equal to the graph
// executor's and released by the caller, hits + misses − puts is back at
// its pre-traffic value once the server has closed.
func TestPoolBalanceAfterTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	linear := nn.NewSequential(nn.NewFlatten("flat"), nn.NewDense(rng, "fc1", 6, 5), nn.NewTanh("t1"), nn.NewDense(rng, "fc2", 5, 3))
	diamond := nn.NewSequential(nn.NewTanh("stem"), nn.NewFlatten("flat"), nn.NewLastStep("last"), nn.NewDense(rng, "head", 2, 3))
	branch := branching.StandIn(31)
	stages := func(ranges ...int) []partition.StageSpec {
		var out []partition.StageSpec
		for i := 0; i < len(ranges); i += 2 {
			out = append(out, partition.StageSpec{FirstLayer: ranges[i], LastLayer: ranges[i+1], Replicas: 1})
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		model     *nn.Sequential
		plan      *partition.Plan
		good, bad []int  // row shapes of answered and of poisoned requests
		fault     string // what a poisoned request's error names
	}{
		{"linear", linear, &partition.Plan{Stages: stages(0, 0, 1, 2, 3, 3), Graph: partition.NewLinear(3)},
			[]int{2, 3}, []int{3, 3}, "stage 1: nn: fc1 forward input"},
		{"diamond", diamond, &partition.Plan{Stages: stages(0, 0, 1, 1, 2, 2, 3, 3), Graph: &partition.StageGraph{Nodes: 4,
			Edges: []partition.StageEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
			Joins: []partition.JoinOp{3: partition.JoinSum}}},
			[]int{1, 2}, []int{2, 2}, "stage 3: sum join over mismatched shapes"},
		{"two-head", branch.Factory(), &partition.Plan{Stages: branch.Stages, Graph: branch.Graph},
			[]int{2}, []int{5}, "stage 0: nn: stem forward input"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustServer(t, Config{Model: tc.model, Plan: tc.plan, MaxBatch: 8, BatchTimeout: 200 * time.Microsecond})
			heads := s.Heads()
			// Inputs and references first: the graph executor's tensors are
			// never released. Row counts keep an assembled answer (tensor.New:
			// rows × 2 or 3 values) off a power of two, which Put would take.
			type call struct {
				x, want *tensor.Tensor
				head    int
			}
			const goroutines, perG = 4, 30
			calls := make([][]call, goroutines)
			for g := range calls {
				for i := 0; i < perG; i++ {
					c := call{head: heads[(g+i)%len(heads)]}
					shape := tc.good
					if i%5 == 4 {
						shape = tc.bad
					}
					c.x = tensor.RandUniform(rand.New(rand.NewSource(int64(g*100+i))), -1, 1, append([]int{[]int{3, 5, 6, 7}[(g+i)%4]}, shape...)...)
					if i%5 != 4 {
						var err error
						if c.want, err = pipeline.ForwardGraphHead(tc.model, tc.plan, c.x, c.head); err != nil {
							t.Fatal(err)
						}
					}
					calls[g] = append(calls[g], c)
				}
			}
			before := outstanding()
			var wg sync.WaitGroup
			for g := range calls {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, c := range calls[g] {
						y, err := s.InferHead(c.x, c.head)
						if c.want == nil {
							if !errors.Is(err, ErrInference) || !strings.Contains(err.Error(), tc.fault) {
								t.Errorf("poisoned request %d/%d: err = %v, want ErrInference naming %q", g, i, err, tc.fault)
							}
							continue
						}
						if err != nil {
							t.Errorf("request %d/%d: %v", g, i, err)
							return
						}
						for j := range c.want.Data {
							if math.Float32bits(y.Data[j]) != math.Float32bits(c.want.Data[j]) {
								t.Errorf("request %d/%d: output %d = %v, want %v", g, i, j, y.Data[j], c.want.Data[j])
								return
							}
						}
						tensor.Put(y)
					}
				}(g)
			}
			wg.Wait()
			s.Close() // every stage worker has returned
			if held := outstanding() - before; held != 0 {
				t.Errorf("%d pooled tensors outstanding after the traffic, want 0", held)
			}
		})
	}
}

// outstanding is the buffer pool's balance: tensors taken and not put back.
func outstanding() int64 {
	hits, misses, puts := tensor.PoolCounters()
	return hits + misses - puts
}

// TestCloseReleasesQueuedDeliveries: a request split into three pipeline
// batches fails on its first, so Infer returns while the other two are
// still inside the stages — stage 0 sleeps, so they wait in inboxes.
// Close, landing then, must hand their pooled deliveries back.
func TestCloseReleasesQueuedDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	plan := &partition.Plan{Stages: []partition.StageSpec{{FirstLayer: 0, LastLayer: 0, Replicas: 1},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1}}, Graph: partition.NewLinear(2)}
	x := tensor.RandUniform(rng, -1, 1, 6, 3) // fc1 takes rows of 2
	for round := 0; round < 10; round++ {
		model := nn.NewSequential(&slowLayer{delay: 2 * time.Millisecond}, nn.NewDense(rng, "fc1", 2, 3))
		s, err := NewServer(Config{Model: model, Plan: plan, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		before := outstanding()
		if _, err := s.Infer(x); !errors.Is(err, ErrInference) {
			t.Fatalf("round %d: err = %v, want ErrInference", round, err)
		}
		s.Close()
		if held := outstanding() - before; held != 0 {
			t.Fatalf("round %d: %d pooled tensors outstanding after Close, want 0", round, held)
		}
	}
}

// panicOnLayer is an identity layer that fails a batch holding the value
// 99, as a layer that rejects one batch of a request would.
type panicOnLayer struct{}

func (panicOnLayer) Name() string { return "panic-on-99" }
func (panicOnLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	for _, v := range x.Data {
		if v == 99 {
			panic("batch holds 99")
		}
	}
	return x, nil
}
func (panicOnLayer) Backward(ctx nn.Context, g *tensor.Tensor) *tensor.Tensor { return g }
func (panicOnLayer) Params() []*tensor.Tensor                                 { return nil }
func (panicOnLayer) Grads() []*tensor.Tensor                                  { return nil }

// TestFailedSplitRequestReturnsItsResponse: a request split into three
// batches answers its first, so the server gathers that batch's rows into
// a pooled response, and fails on its second. The gathered response goes
// back to the pool; the caller, who only sees the error, cannot.
func TestFailedSplitRequestReturnsItsResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// One stage: its answers reach the demultiplexer in batch order.
	plan := &partition.Plan{Stages: []partition.StageSpec{{FirstLayer: 0, LastLayer: 1, Replicas: 1}},
		Graph: partition.NewLinear(1)}
	x := tensor.RandUniform(rng, -1, 1, 6, 2)
	x.Data[5] = 99 // row 2, in the second batch of two rows
	for round := 0; round < 5; round++ {
		model := nn.NewSequential(panicOnLayer{}, nn.NewDense(rng, "fc1", 2, 3))
		s := mustServer(t, Config{Model: model, Plan: plan, MaxBatch: 2})
		before := outstanding()
		if _, err := s.Infer(x); !errors.Is(err, ErrInference) || !strings.Contains(err.Error(), "batch holds 99") {
			t.Fatalf("round %d: err = %v, want ErrInference from the second batch", round, err)
		}
		s.Close()
		if held := outstanding() - before; held != 0 {
			t.Fatalf("round %d: %d pooled tensors outstanding after Close, want 0", round, held)
		}
	}
}
