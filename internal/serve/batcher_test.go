package serve

import (
	"errors"
	"testing"
	"time"

	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
)

// gateLayer is an identity layer that holds every Forward until the test
// opens it, which keeps stage 0 busy for exactly as long as a test needs:
// the batcher tests wait on events, not on a microsecond model losing a
// race. entered gets a token when a call arrives at a closed gate.
type gateLayer struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateLayer) Name() string { return "gate" }
func (g *gateLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return x, nil
}
func (g *gateLayer) Backward(ctx nn.Context, grad *tensor.Tensor) *tensor.Tensor { return grad }
func (g *gateLayer) Params() []*tensor.Tensor                                    { return nil }
func (g *gateLayer) Grads() []*tensor.Tensor                                     { return nil }

// open lets every held and every later Forward through.
func (g *gateLayer) open() { close(g.release) }

// openAfterCoalescing holds stage 0 on its first batch until a second
// batch has been dispatched behind it — which, under a BatchTimeout no
// test outlasts, can only be a full, coalesced one — and then opens.
func (g *gateLayer) openAfterCoalescing(t *testing.T, s *Server) {
	t.Helper()
	<-g.entered
	waitFor(t, "a second batch behind the held one", func() bool { return s.Stats().Batches >= 2 })
	g.open()
}

// gated puts a closed gate in front of the model's layers.
func gated(model *nn.Sequential) (*nn.Sequential, *gateLayer) {
	g := &gateLayer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	return nn.NewSequential(append([]nn.Layer{g}, model.Layers...)...), g
}

// gatedPlan2 is plan2 for a gated testModel: the gate joins stage 0.
func gatedPlan2() *partition.Plan {
	return &partition.Plan{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 3, Replicas: 1},
		{FirstLayer: 4, LastLayer: 5, Replicas: 1},
	}, Graph: partition.NewLinear(2)}
}

// waitFor polls cond until it holds; the deadline only turns a hang into
// a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// enqueue admits x the way Infer does and returns once it is in the
// submit queue, without waiting for its answer.
func enqueue(t *testing.T, s *Server, x *tensor.Tensor) *request {
	t.Helper()
	req := &request{x: x, rows: x.Dim(0), head: s.defaultHead, resp: make(chan result, 1), enq: time.Now()}
	if err := s.submit(req); err != nil {
		t.Fatal(err)
	}
	return req
}

// holdStage0 sends one request into the gated server and returns once
// stage 0 is inside its forward pass, with the channel the request's
// error will arrive on.
func holdStage0(t *testing.T, s *Server, gate *gateLayer) <-chan error {
	t.Helper()
	held := make(chan error, 1)
	go func() {
		_, err := s.Infer(testInput(1, 1))
		held <- err
	}()
	<-gate.entered
	return held
}

// TestBusyStageCoalesces: requests that arrive while stage 0 is busy wait
// for it together and leave as one batch the moment it goes idle — long
// before BatchTimeout, and without filling MaxBatch.
func TestBusyStageCoalesces(t *testing.T) {
	model, gate := gated(testModel(30))
	ref := testModel(30)
	s := mustServer(t, Config{Model: model, Plan: gatedPlan2(), MaxBatch: 64, BatchTimeout: time.Minute})
	held := holdStage0(t, s, gate)

	const n = 6
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = enqueue(t, s, testInput(int64(300+i), 1+i%3))
	}
	if b := s.Stats().Batches; b != 1 {
		t.Fatalf("%d batches while stage 0 is held, want 1 (the held one)", b)
	}
	gate.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		r := <-req.resp
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want, _ := ref.Forward(req.x, false)
		wantEqual(t, r.y, want)
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Errorf("batches = %d, want 2: the held request, then everything that queued behind it", st.Batches)
	}
}

// TestBatchTimeoutStillBounds: BatchTimeout keeps its meaning as the
// longest a batch waits — with stage 0 held for longer than that, the
// coalescing batch is dispatched anyway, before the gate opens.
func TestBatchTimeoutStillBounds(t *testing.T) {
	model, gate := gated(testModel(31))
	s := mustServer(t, Config{Model: model, Plan: gatedPlan2(), MaxBatch: 64, BatchTimeout: 5 * time.Millisecond})
	held := holdStage0(t, s, gate)

	reqs := []*request{enqueue(t, s, testInput(310, 2)), enqueue(t, s, testInput(311, 1))}
	waitFor(t, "the timeout to dispatch the partial batch", func() bool { return s.Stats().Batches == 2 })
	gate.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if r := <-req.resp; r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Errorf("batches = %d, want 2", st.Batches)
	}
}

// TestCloseWhileCoalescing: Close while a batch is being collected behind
// a busy stage 0 fails every collected request with ErrServerClosed. None
// of them was dispatched, so nothing reads their tensors and each caller
// may release its own — once, under the poisoned pool's double-release
// check.
func TestCloseWhileCoalescing(t *testing.T) {
	model, gate := gated(testModel(32))
	s, err := NewServer(Config{Model: model, Plan: gatedPlan2(), MaxBatch: 64, BatchTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	held := holdStage0(t, s, gate)

	reqs := make([]*request, 5)
	for i := range reqs {
		reqs[i] = enqueue(t, s, pooledInput(int64(320+i), 1+i%2))
	}
	// Every request is in the collect loop's batch, none still queued: the
	// batcher, not Close's final flush (which runs only after stage 0 is
	// out of the gate), is what answers them.
	waitFor(t, "the batcher to collect the queue", func() bool { return len(s.queue) == 0 })
	closed := make(chan struct{})
	go func() {
		s.Close() // returns once stage 0 is let out of the gate
		close(closed)
	}()
	for i, req := range reqs {
		if r := <-req.resp; !errors.Is(r.err, ErrServerClosed) {
			t.Errorf("request %d: err = %v, want ErrServerClosed", i, r.err)
		}
		tensor.Put(req.x)
	}
	gate.open()
	<-closed
	if err := <-held; err != nil && !errors.Is(err, ErrServerClosed) {
		t.Errorf("held request: err = %v, want nil or ErrServerClosed", err)
	}
}
