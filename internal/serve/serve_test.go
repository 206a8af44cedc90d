package serve

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// testModel builds a small deterministic MLP: 2 → 16 → 3.
func testModel(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		nn.NewDense(rng, "fc1", 2, 16),
		nn.NewTanh("t1"),
		nn.NewDense(rng, "fc2", 16, 16),
		nn.NewTanh("t2"),
		nn.NewDense(rng, "fc3", 16, 3),
	)
}

// testInput builds a deterministic [rows, 2] input.
func testInput(seed int64, rows int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandUniform(rng, -1, 1, rows, 2)
}

// plan2 splits the 5-layer test model into two stages.
func plan2() *partition.Plan {
	return &partition.Plan{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 2, Replicas: 1},
		{FirstLayer: 3, LastLayer: 4, Replicas: 1},
	}, Graph: partition.NewLinear(2)}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func wantEqual(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if got == nil {
		t.Fatal("nil result")
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("result has %d values, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("result[%d] = %v, want %v (bit-exact)", i, got.Data[i], want.Data[i])
		}
	}
}

// TestBatchedMatchesUnbatched is the core serving invariant: dynamically
// batched responses are bit-identical to single-request forward passes,
// for every batch composition the batcher can produce. The gate makes
// "some batch was coalesced" an event, not the outcome of a race.
func TestBatchedMatchesUnbatched(t *testing.T) {
	model, gate := gated(testModel(1))
	ref := testModel(1)
	s := mustServer(t, Config{Model: model, Plan: gatedPlan2(), MaxBatch: 8, BatchTimeout: time.Minute})

	const requests = 40
	type res struct {
		got  *tensor.Tensor
		err  error
		want *tensor.Tensor
	}
	results := make([]res, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		x := testInput(int64(100+i), 1+i%5) // 1..5 rows
		want, _ := ref.Forward(x, false)
		results[i].want = want
		wg.Add(1)
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			results[i].got, results[i].err = s.Infer(x)
		}(i, x)
	}
	gate.openAfterCoalescing(t, s)
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		wantEqual(t, r.got, r.want)
	}
	st := s.Stats()
	if st.Responses != requests {
		t.Fatalf("responses = %d, want %d", st.Responses, requests)
	}
	if st.Batches >= st.Requests {
		t.Errorf("no coalescing happened: %d batches for %d requests", st.Batches, st.Requests)
	}
}

// TestLoneRequestDoesNotWait: BatchTimeout bounds the wait behind a busy
// stage 0, it does not impose one on an idle pipeline — a lone request
// leaves at once, alone.
func TestLoneRequestDoesNotWait(t *testing.T) {
	const timeout = 5 * time.Second
	model := testModel(2)
	ref := testModel(2)
	s := mustServer(t, Config{Model: model, MaxBatch: 64, BatchTimeout: timeout})
	x := testInput(7, 1)
	want, _ := ref.Forward(x, false)
	start := time.Now()
	y, err := s.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantEqual(t, y, want)
	if elapsed := time.Since(start); elapsed > timeout/2 {
		t.Errorf("lone request took %v in front of an idle pipeline (BatchTimeout %v)", elapsed, timeout)
	}
	st := s.Stats()
	if st.Batches != 1 {
		t.Errorf("batches = %d, want 1", st.Batches)
	}
	if st.BatchWaitP50Micros > float64(timeout.Microseconds())/2 {
		t.Errorf("BatchWaitP50Micros = %v, want well under BatchTimeout", st.BatchWaitP50Micros)
	}
}

// TestLargeRequestSplits: a request bigger than MaxBatch spans several
// pipeline batches and reassembles in order.
func TestLargeRequestSplits(t *testing.T) {
	model := testModel(3)
	ref := testModel(3)
	s := mustServer(t, Config{Model: model, Plan: plan2(), MaxBatch: 4, BatchTimeout: time.Millisecond})
	x := testInput(11, 19) // 19 rows through MaxBatch=4 → 5 pipeline batches
	want, _ := ref.Forward(x, false)
	y, err := s.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantEqual(t, y, want)
	if st := s.Stats(); st.Batches != 5 {
		t.Errorf("batches = %d, want 5", st.Batches)
	}
}

// TestBurstBeyondMaxBatch: a burst of more rows than MaxBatch is split
// into full batches, and every request still gets its own rows back.
func TestBurstBeyondMaxBatch(t *testing.T) {
	model := testModel(4)
	ref := testModel(4)
	s := mustServer(t, Config{Model: model, MaxBatch: 4, BatchTimeout: 5 * time.Millisecond})
	const requests = 32
	var wg sync.WaitGroup
	errs := make([]error, requests)
	got := make([]*tensor.Tensor, requests)
	want := make([]*tensor.Tensor, requests)
	for i := 0; i < requests; i++ {
		x := testInput(int64(500+i), 2)
		want[i], _ = ref.Forward(x, false)
		wg.Add(1)
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			got[i], errs[i] = s.Infer(x)
		}(i, x)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		wantEqual(t, got[i], want[i])
	}
}

// TestQueueFullSheds: when the submit queue is full, Infer fails fast
// with ErrOverloaded instead of queueing unboundedly.
func TestQueueFullSheds(t *testing.T) {
	model := nn.NewSequential(&slowLayer{delay: 50 * time.Millisecond})
	s := mustServer(t, Config{
		Model: model, MaxBatch: 1, BatchTimeout: time.Millisecond,
		QueueCap: 2, MaxInFlight: 1,
	})
	// Saturate: 1 in flight (slow), 2 queued, rest must shed.
	const requests = 16
	var wg sync.WaitGroup
	var shed, okCount int
	var mu sync.Mutex
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Infer(testInput(int64(i), 1))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				okCount++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatalf("no requests shed (%d ok)", okCount)
	}
	if okCount == 0 {
		t.Fatal("every request shed; admission control admitted nothing")
	}
	if st := s.Stats(); st.Shed != int64(shed) {
		t.Errorf("Stats().Shed = %d, want %d", st.Shed, shed)
	}
}

// slowLayer is an identity layer that sleeps, to hold the pipeline busy.
type slowLayer struct{ delay time.Duration }

func (l *slowLayer) Name() string { return "slow" }
func (l *slowLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	time.Sleep(l.delay)
	return x, nil
}
func (l *slowLayer) Backward(ctx nn.Context, g *tensor.Tensor) *tensor.Tensor { return g }
func (l *slowLayer) Params() []*tensor.Tensor                                 { return nil }
func (l *slowLayer) Grads() []*tensor.Tensor                                  { return nil }

// TestShapeGrouping: requests with different per-row shapes are never
// coalesced into one batch — both still answer correctly.
func TestShapeGrouping(t *testing.T) {
	// Tanh accepts any shape, so mixed-shape traffic is well-defined as
	// long as the batcher keeps shapes apart.
	model := nn.NewSequential(nn.NewTanh("t"))
	s := mustServer(t, Config{Model: model, MaxBatch: 16, BatchTimeout: 5 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		dim := 3 + i%2 // rows of width 3 and 4, interleaved
		x := testInputDim(int64(i), 2, dim)
		wg.Add(1)
		go func(x *tensor.Tensor) {
			defer wg.Done()
			y, err := s.Infer(x)
			if err != nil {
				t.Error(err)
				return
			}
			if y.Dim(0) != x.Dim(0) || y.Dim(1) != x.Dim(1) {
				t.Errorf("shape %v in, %v out", x.Shape, y.Shape)
				return
			}
			for j := range x.Data {
				want := float32(tanh32(x.Data[j]))
				if y.Data[j] != want {
					t.Errorf("y[%d] = %v, want %v", j, y.Data[j], want)
					return
				}
			}
		}(x)
	}
	wg.Wait()
}

func testInputDim(seed int64, rows, dim int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandUniform(rng, -1, 1, rows, dim)
}

// tanh32 mirrors the Tanh layer's float32 elementwise math.
func tanh32(v float32) float32 {
	y, _ := nn.NewTanh("t").Forward(tensor.FromSlice([]float32{v}, 1, 1), false)
	return y.Data[0]
}

// TestInputShapeValidation: InputShape turns malformed requests into
// typed ErrBadRequest before they reach a stage worker.
func TestInputShapeValidation(t *testing.T) {
	s := mustServer(t, Config{Model: testModel(5), InputShape: []int{2}})
	if _, err := s.Infer(testInputDim(1, 2, 3)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wrong-shape request: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Infer(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil request: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Infer(testInput(1, 2)); err != nil {
		t.Fatalf("well-formed request: %v", err)
	}
}

// TestWorkerPanicIsolated: a batch whose shape blows up inside a kernel
// fails with ErrInference naming the stage and what it panicked with; the
// server keeps serving later requests.
func TestWorkerPanicIsolated(t *testing.T) {
	s := mustServer(t, Config{Model: testModel(6), Plan: plan2(), MaxBatch: 1, BatchTimeout: time.Millisecond})
	_, err := s.Infer(testInputDim(1, 2, 7))
	if !errors.Is(err, ErrInference) {
		t.Fatalf("bad-shape request: err = %v, want ErrInference", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "stage 0: ") || !strings.Contains(msg, "fc1 forward input [1 7]") {
		t.Fatalf("bad-shape request: err = %q, want the stage and the panic's text (the 7-wide row)", msg)
	}
	if _, err := s.Infer(testInput(1, 3)); err != nil {
		t.Fatalf("request after panic: %v", err)
	}
}

// TestConvShapeFaultNamesStageAndLayer: a convolution handed the wrong
// shape (here a model whose second convolution was built for one channel
// and is fed two) fails the request with ErrInference naming the stage
// and the layer, as a Dense does.
func TestConvShapeFaultNamesStageAndLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	model := nn.NewSequential(nn.NewConv2D(rng, "conv0", g, 2), nn.NewReLU("relu0"), nn.NewConv2D(rng, "conv1", g, 2))
	plan := &partition.Plan{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 1, Replicas: 1},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
	}, Graph: partition.NewLinear(2)}
	s := mustServer(t, Config{Model: model, Plan: plan, InputShape: []int{1, 4, 4}, MaxBatch: 1, BatchTimeout: time.Millisecond})
	_, err := s.Infer(tensor.RandUniform(rng, -1, 1, 1, 1, 4, 4))
	if !errors.Is(err, ErrInference) {
		t.Fatalf("err = %v, want ErrInference", err)
	}
	if want := "stage 1: nn: conv1 forward input [1 2 4 4], want [B,1,4,4]"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to contain %q", err, want)
	}
}

// TestCloseFailsPending: Close answers queued and in-flight requests
// with ErrServerClosed, and later submits fail immediately.
func TestCloseFailsPending(t *testing.T) {
	model := nn.NewSequential(&slowLayer{delay: 30 * time.Millisecond})
	s, err := NewServer(Config{Model: model, MaxBatch: 1, BatchTimeout: time.Millisecond, QueueCap: 8, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Infer(testInput(int64(i), 1))
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let them queue
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrServerClosed) && !errors.Is(err, ErrOverloaded) {
			t.Errorf("request %d: err = %v, want nil, ErrServerClosed, or ErrOverloaded", i, err)
		}
	}
	if _, err := s.Infer(testInput(99, 1)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close request: err = %v, want ErrServerClosed", err)
	}
}

// TestOrderPreservedUnderConcurrency hammers a multi-stage server from
// many submitters and checks every response is the one for its request
// (run with -race to double as the data-race gate).
func TestOrderPreservedUnderConcurrency(t *testing.T) {
	model := nn.NewSequential(nn.NewTanh("t"))
	s := mustServer(t, Config{Model: model, MaxBatch: 8, BatchTimeout: time.Millisecond, QueueCap: 1024, MaxInFlight: 8})
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rows := 1 + (w+i)%4
				x := tensor.New(rows, 2)
				for r := 0; r < rows; r++ {
					// Encode (worker, request, row) into the values.
					x.Data[r*2] = float32(w*1000 + i)
					x.Data[r*2+1] = float32(r)
				}
				y, err := s.Infer(x)
				if err != nil {
					t.Error(err)
					return
				}
				for r := 0; r < rows; r++ {
					if y.Data[r*2] != tanh32(float32(w*1000+i)) || y.Data[r*2+1] != tanh32(float32(r)) {
						t.Errorf("worker %d request %d row %d: got someone else's row", w, i, r)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Responses != workers*perWorker {
		t.Fatalf("responses = %d, want %d", st.Responses, workers*perWorker)
	}
}

// TestMetricsRegistry: serve.* instruments land in a provided registry.
func TestMetricsRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	opLog := metrics.NewOpLog(0)
	s := mustServer(t, Config{Model: testModel(8), Plan: plan2(), Metrics: reg, OpLog: opLog, BatchTimeout: time.Millisecond})
	if _, err := s.Infer(testInput(1, 4)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, key := range []string{"serve.requests", "serve.rows", "serve.batches", "serve.latency_us", "serve.batch_wait_us", "serve.batch_rows", "serve.s0.forward_us", "serve.s1.forward_us"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("registry missing %q", key)
		}
	}
	var sawRequest, sawQueue, sawForward bool
	for _, ev := range opLog.Events() {
		switch ev.Kind {
		case metrics.OpRequest:
			sawRequest = true
		case metrics.OpQueue:
			sawQueue = true
		case metrics.OpForward:
			sawForward = true
		}
	}
	if !sawRequest || !sawQueue || !sawForward {
		t.Errorf("op log missing spans: request=%v queue=%v forward=%v", sawRequest, sawQueue, sawForward)
	}
}

// expandModel builds FlattenTime → Tanh: [B, T, H] in, [B*T, H] out —
// the row-count-changing shape the sequence task's head sees.
func expandModel() *nn.Sequential {
	return nn.NewSequential(nn.NewFlattenTime("ft"), nn.NewTanh("t"))
}

// TestRowExpandingModelBatched: layers like FlattenTime change the
// output row count ([B,T,H] → [B*T,H]); coalesced responses must still
// be bit-identical to unbatched forward passes, with segment offsets
// scaled by the expansion factor.
func TestRowExpandingModelBatched(t *testing.T) {
	model, gate := gated(expandModel())
	s := mustServer(t, Config{Model: model, MaxBatch: 8, BatchTimeout: time.Minute})
	ref := expandModel()
	const requests = 24
	type res struct {
		got, want *tensor.Tensor
		err       error
	}
	results := make([]res, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		rows := 1 + i%3
		rng := rand.New(rand.NewSource(int64(900 + i)))
		x := tensor.RandUniform(rng, -1, 1, rows, 4, 2) // [B, T=4, H=2]
		results[i].want, _ = ref.Forward(x, false)
		wg.Add(1)
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			results[i].got, results[i].err = s.Infer(x)
		}(i, x)
	}
	gate.openAfterCoalescing(t, s)
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.got.Dim(0) != r.want.Dim(0) {
			t.Fatalf("request %d: %d output rows, want %d", i, r.got.Dim(0), r.want.Dim(0))
		}
		wantEqual(t, r.got, r.want)
	}
	if st := s.Stats(); st.Batches >= st.Requests {
		t.Errorf("no coalescing happened: %d batches for %d requests", st.Batches, st.Requests)
	}
}

// TestRowExpandingModelSplit: a request larger than MaxBatch through a
// row-expanding model reassembles each batch's expanded rows at the
// right request offsets.
func TestRowExpandingModelSplit(t *testing.T) {
	s := mustServer(t, Config{Model: expandModel(), MaxBatch: 4, BatchTimeout: time.Millisecond})
	ref := expandModel()
	rng := rand.New(rand.NewSource(901))
	x := tensor.RandUniform(rng, -1, 1, 11, 3, 2) // 11 rows through MaxBatch=4 → 3 batches
	want, _ := ref.Forward(x, false)
	y, err := s.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != want.Dim(0) {
		t.Fatalf("%d output rows, want %d", y.Dim(0), want.Dim(0))
	}
	wantEqual(t, y, want)
}

// failingTransport wraps a Transport and fails the next fail[to] sends
// to each endpoint with ErrPeerDown, like a TCP peer mid-outage.
type failingTransport struct {
	transport.Transport
	mu   sync.Mutex
	fail map[int]int
}

// Send implements transport.Transport.
func (f *failingTransport) Send(to int, m transport.Message) error {
	f.mu.Lock()
	if f.fail[to] > 0 {
		f.fail[to]--
		f.mu.Unlock()
		return transport.ErrPeerDown
	}
	f.mu.Unlock()
	return f.Transport.Send(to, m)
}

// TestSendFailureReclaimsSlot: a batch whose Send fails anywhere along
// the pipeline must release its MaxInFlight slot and fail its requests
// with ErrTransport — otherwise each lost batch leaks a slot and the
// server deadlocks after MaxInFlight losses.
func TestSendFailureReclaimsSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		to   int // endpoint whose sends fail
	}{
		{"dispatch", 0},    // batcher → stage 0
		{"inter-stage", 1}, // stage 0 → stage 1
		{"prediction", 2},  // stage 1 → demux
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &failingTransport{
				Transport: transport.NewChannels(3, 8),
				fail:      map[int]int{tc.to: 2},
			}
			s := mustServer(t, Config{
				Model: testModel(10), Plan: plan2(), Transport: tr,
				MaxBatch: 1, BatchTimeout: time.Millisecond, MaxInFlight: 1,
			})
			// The first two requests ride batches the transport loses.
			for i := 0; i < 2; i++ {
				if _, err := s.Infer(testInput(int64(i), 1)); !errors.Is(err, ErrTransport) {
					t.Fatalf("lost batch %d: err = %v, want ErrTransport", i, err)
				}
			}
			// With MaxInFlight=1, serving again proves both slots came back.
			for i := 2; i < 5; i++ {
				if _, err := s.Infer(testInput(int64(i), 1)); err != nil {
					t.Fatalf("request after transport recovery: %v", err)
				}
			}
		})
	}
}

// TestPlanWithoutGraph: a Plan literal that left Graph out is rejected
// with an error, not a nil dereference.
func TestPlanWithoutGraph(t *testing.T) {
	plan := plan2()
	plan.Graph = nil
	if _, err := NewServer(Config{Model: testModel(9), Plan: plan}); err == nil {
		t.Fatal("plan without a stage graph was accepted")
	}
}

// TestPlanMismatch: a plan that does not cover the model is rejected.
func TestPlanMismatch(t *testing.T) {
	bad := &partition.Plan{Stages: []partition.StageSpec{{FirstLayer: 0, LastLayer: 1, Replicas: 1}}, Graph: partition.NewLinear(1)}
	if _, err := NewServer(Config{Model: testModel(9), Plan: bad}); err == nil {
		t.Fatal("plan covering 2 of 5 layers was accepted")
	}
}
