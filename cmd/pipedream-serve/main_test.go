package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/metrics"
	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
)

// newFuzzServer builds a small single-stage server matching the spiral
// task's [2]-float input rows.
func newFuzzServer(t testing.TB) (infer func(*tensor.Tensor) (*tensor.Tensor, error), inputShape []int) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(
		nn.NewDense(rng, "fc1", 2, 8),
		nn.NewTanh("t1"),
		nn.NewDense(rng, "fc2", 8, 3),
	)
	srv, err := serve.NewServer(serve.Config{
		Model:        model,
		InputShape:   []int{2},
		MaxBatch:     8,
		BatchTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Infer, []int{2}
}

// inferRequest and inferResponse are the /infer bodies as encoding/json
// sees them: what a client decodes, and what referenceHandleInfer uses.
type inferRequest struct {
	Inputs [][]float32 `json:"inputs"`
}

type inferResponse struct {
	Outputs [][]float32 `json:"outputs"`
	Argmax  []int       `json:"argmax"`
}

// referenceHandleInfer is handleInfer as it was when encoding/json did
// all the work (its one defect, the dropped Encode error, kept): the
// oracle handleInfer is held to, status for status and byte for byte.
func referenceHandleInfer(infer func(*tensor.Tensor) (*tensor.Tensor, error), inputShape []int, w http.ResponseWriter, r *http.Request) {
	var req inferRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInferBody)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rowSize := 1
	for _, d := range inputShape {
		rowSize *= d
	}
	rows := len(req.Inputs)
	if rows == 0 {
		http.Error(w, "no inputs", http.StatusBadRequest)
		return
	}
	if rows > maxInferRows {
		http.Error(w, fmt.Sprintf("%d rows exceeds the per-request cap of %d", rows, maxInferRows), http.StatusBadRequest)
		return
	}
	flat := make([]float32, 0, rows*rowSize)
	for i, row := range req.Inputs {
		if len(row) != rowSize {
			http.Error(w, fmt.Sprintf("input %d has %d values, want %d", i, len(row), rowSize), http.StatusBadRequest)
			return
		}
		flat = append(flat, row...)
	}
	y, err := infer(tensor.FromSlice(flat, append([]int{rows}, inputShape...)...))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	outRow := y.Size() / y.Dim(0)
	resp := inferResponse{Outputs: make([][]float32, y.Dim(0)), Argmax: make([]int, y.Dim(0))}
	for i := range resp.Outputs {
		row := y.Data[i*outRow : (i+1)*outRow]
		resp.Outputs[i] = row
		for j, v := range row {
			if v > row[resp.Argmax[i]] {
				resp.Argmax[i] = j
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// postBoth sends one body through handleInfer and the reference.
func postBoth(infer func(*tensor.Tensor) (*tensor.Tensor, error), inputShape []int, body []byte) (got, want *httptest.ResponseRecorder) {
	got, want = httptest.NewRecorder(), httptest.NewRecorder()
	handleInfer(infer, inputShape, got, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	referenceHandleInfer(infer, inputShape, want, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	return got, want
}

// FuzzInferRequest throws hostile bodies at the /infer handler: broken
// JSON, wrong row widths, huge row counts, out-of-range numbers, deeply
// wrong types, and bodies just either side of the shape the single-pass
// scan takes. The contract under fuzzing is differential: the status, the
// error text and — inference being deterministic — every byte of a 200
// equal the encoding/json reference handler's, with no panic and no 5xx.
func FuzzInferRequest(f *testing.F) {
	infer, inputShape := newFuzzServer(f)

	f.Add([]byte(`{"inputs":[[0.5,-0.5]]}`))
	f.Add([]byte(`{"inputs":[[0.5,-0.5],[1,2]]}`))
	f.Add([]byte(`{"inputs":[]}`))
	f.Add([]byte(`{"inputs":[[]]}`))
	f.Add([]byte(`{"inputs":[[1,2,3]]}`))   // too wide
	f.Add([]byte(`{"inputs":[[1]]}`))       // too narrow
	f.Add([]byte(`{"inputs":[[NaN,1]]}`))   // NaN is not JSON
	f.Add([]byte(`{"inputs":[[1e999,0]]}`)) // overflows float
	f.Add([]byte(`{"inputs":[["a","b"]]}`)) // wrong element type
	f.Add([]byte(`{"inputs":"zebra"}`))     // wrong field type
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"inputs":[` + strings.Repeat(`[1,2],`, 2000) + `[1,2]]}`)) // over the row cap
	f.Add(bytes.Repeat([]byte("9"), 4096))
	// The edge of the fast shape: each of these must come out exactly as
	// encoding/json decides it.
	f.Add([]byte(`{"inputs":[[1,2]]} trailing garbage`))
	f.Add([]byte(`{"Inputs":[[1,2]]}`))
	f.Add([]byte(`{"INPUTS":[[1,2]]}`))
	f.Add([]byte(`{"x":0,"inputs":[[1,2]]}`))
	f.Add([]byte(`{"inputs":[[1,2]],"x":[0]}`))
	f.Add([]byte(`{"inputs":[[1,2]],"inputs":[[3,4]]}`))
	f.Add([]byte(`{"inputs":[null,[1,2]]}`))
	f.Add([]byte(`{"inputs":null}`))
	f.Add([]byte(`{"inputs":[[1.,2]]}`))
	f.Add([]byte(`{"inputs":[[.5,2]]}`))
	f.Add([]byte(`{"inputs":[[+1,2]]}`))
	f.Add([]byte(`{"inputs":[[01,2]]}`))
	f.Add([]byte(`{"inputs":[[1e39,2]]}`))
	f.Add([]byte(`{"inputs":[[-0,1e-50]]}`))
	f.Add([]byte(`{"inputs":[` + strings.Repeat(`[1,2],`, maxInferRows-1) + `[1,2]]}`)) // exactly the row cap
	f.Add([]byte(`{"inputs":[` + strings.Repeat(`[1,2],`, maxInferRows) + `[1,2]]}`))   // the 1,025th row
	f.Add([]byte(" {\n\t\"inputs\" :\r [ [ 1 , 2 ] ,\n[ 3 , 4 ] ] } \n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		got, want := postBoth(infer, inputShape, body)
		// One text names the Go type decoded into, which moved packages.
		wantBody := strings.ReplaceAll(want.Body.String(), "type main.inferRequest", "type serve.inferRequest")
		if got.Code != want.Code || got.Body.String() != wantBody {
			t.Fatalf("body %q:\n got %d %q\nwant %d %q", body, got.Code, got.Body.String(), want.Code, wantBody)
		}
		switch {
		case got.Code == http.StatusOK:
			var resp inferResponse
			if err := json.Unmarshal(got.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", got.Body.String(), err)
			}
			if len(resp.Outputs) == 0 || len(resp.Outputs) != len(resp.Argmax) {
				t.Fatalf("200 with inconsistent response: %d outputs, %d argmax", len(resp.Outputs), len(resp.Argmax))
			}
		case got.Code >= 400 && got.Code < 500:
			// Typed rejection: fine.
		default:
			t.Fatalf("status %d for body %q; want 200 or 4xx", got.Code, body)
		}
	})
}

// TestHandleInferRejectsOversizedBody: a body over the 1 MB cap fails
// with a 400 instead of being slurped into memory.
func TestHandleInferRejectsOversizedBody(t *testing.T) {
	infer, inputShape := newFuzzServer(t)
	var b bytes.Buffer
	b.WriteString(`{"inputs":[[1,2]`)
	for b.Len() <= maxInferBody {
		b.WriteString(`,[1,2]`)
	}
	b.WriteString(`]}`)
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(b.Bytes()))
	rec := httptest.NewRecorder()
	handleInfer(infer, inputShape, rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", rec.Code)
	}
}

// TestHandleInferPerHead drives the DAG serving path end to end through
// the HTTP handler: a branching-model server answers per-head requests
// (the ?head= closure the /infer mux builds), each head returns its own
// output width, and a non-sink head maps to a 400.
func TestHandleInferPerHead(t *testing.T) {
	b := branching.StandIn(11)
	srv, err := serve.NewServer(serve.Config{
		Model:        b.Factory(),
		Plan:         &partition.Plan{Stages: b.Stages, Graph: b.Graph},
		InputShape:   []int{2},
		MaxBatch:     4,
		BatchTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	post := func(head int) *httptest.ResponseRecorder {
		infer := func(x *tensor.Tensor) (*tensor.Tensor, error) { return srv.InferHead(x, head) }
		req := httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"inputs":[[0.3,-0.2],[1,0.5]]}`))
		rec := httptest.NewRecorder()
		handleInfer(infer, []int{2}, rec, req)
		return rec
	}

	for _, tc := range []struct {
		head, wantCols int
	}{
		{b.ClassHead, 3},  // 3-way spiral logits
		{b.ParityHead, 2}, // 2-way parity logits
	} {
		rec := post(tc.head)
		if rec.Code != http.StatusOK {
			t.Fatalf("head %d: status %d: %s", tc.head, rec.Code, rec.Body.String())
		}
		var resp inferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Outputs) != 2 || len(resp.Outputs[0]) != tc.wantCols {
			t.Fatalf("head %d: got %dx%d outputs, want 2x%d",
				tc.head, len(resp.Outputs), len(resp.Outputs[0]), tc.wantCols)
		}
	}

	// A stage that is not an output head is a client error, not a 5xx.
	if rec := post(1); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-sink head: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestMetricsHoldEachReplicasServeInstruments: /metrics writes the fleet
// registry, and after one /infer it holds the serve.* instruments of the
// replica that answered, under that replica's prefix, with its requests
// counter at 1.
func TestMetricsHoldEachReplicasServeInstruments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reg := metrics.NewRegistry()
	fl, err := fleet.New(fleet.Config{Replicas: 2, Metrics: reg}, fleet.TenantConfig{
		Name: "spiral",
		Server: serve.Config{
			Model:        nn.NewSequential(nn.NewDense(rng, "fc1", 2, 3)),
			InputShape:   []int{2},
			BatchTimeout: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	ten, err := fl.Tenant("spiral")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	handleInfer(ten.Infer, []int{2}, rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"inputs":[[0.3,-0.2]]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	answered := 0
	for id := 0; id < 2; id++ {
		prefix := fmt.Sprintf("serve.fleet.spiral.r%d.", id)
		for _, key := range []string{"requests", "latency_us", "s0.forward_us"} {
			if _, ok := snap[prefix+key]; !ok {
				t.Errorf("/metrics has no %s", prefix+key)
			}
		}
		picks, requests := snap[prefix+"picks"], snap[prefix+"requests"]
		if picks != requests {
			t.Errorf("replica %d: %v picks, %v requests", id, picks, requests)
		}
		if requests == 1.0 {
			answered++
		}
	}
	if answered != 1 {
		t.Errorf("%d replicas count the one request, want 1", answered)
	}
}

// TestAggregateServeCountsATenantsSwapsOnce: a swap installs one
// generation on every replica of a tenant, so /healthz's Swaps and the
// shutdown line count it once — three swaps on two replicas read 3, not 6.
func TestAggregateServeCountsATenantsSwapsOnce(t *testing.T) {
	model := func() *nn.Sequential {
		return nn.NewSequential(nn.NewDense(rand.New(rand.NewSource(1)), "fc1", 2, 3))
	}
	fl, err := fleet.New(fleet.Config{Replicas: 2}, fleet.TenantConfig{
		Name:   "spiral",
		Server: serve.Config{Model: model(), BatchTimeout: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	ten, err := fl.Tenant("spiral")
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 3; gen++ {
		if err := ten.SwapModel(model(), gen); err != nil {
			t.Fatal(err)
		}
	}
	agg := aggregateServe(ten.Stats())
	if agg.Swaps != 3 || agg.WeightGeneration != 3 {
		t.Fatalf("Swaps = %d at generation %d over 2 replicas, want 3 at 3", agg.Swaps, agg.WeightGeneration)
	}
}

// TestHandleInferMethodNotAllowed pins the GET rejection.
func TestHandleInferMethodNotAllowed(t *testing.T) {
	infer, inputShape := newFuzzServer(t)
	req := httptest.NewRequest(http.MethodGet, "/infer", nil)
	rec := httptest.NewRecorder()
	handleInfer(infer, inputShape, rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer: status %d, want 405", rec.Code)
	}
}

// TestHandleInferNonFiniteOutputIs500: a NaN or ±Inf output (a diverged
// checkpoint) has no JSON form. The encoder used to fail after the 200
// was committed and the client got an empty body; it now answers 500
// wrapping serve.ErrInference before a byte is written.
func TestHandleInferNonFiniteOutputIs500(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		infer := func(x *tensor.Tensor) (*tensor.Tensor, error) {
			return tensor.FromSlice([]float32{0.5, -1, 2, bad}, 2, 2), nil
		}
		rec := httptest.NewRecorder()
		handleInfer(infer, []int{2}, rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"inputs":[[1,2],[3,4]]}`)))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("output %v: status %d, want 500; body %q", bad, rec.Code, rec.Body.String())
		}
		if body := rec.Body.String(); !strings.Contains(body, serve.ErrInference.Error()) || !strings.Contains(body, "row 1") {
			t.Fatalf("output %v: body %q does not name ErrInference and the row", bad, body)
		}
	}
}

// TestHandleInferStagePanicIs500WithCause: a stage panic reaches the
// client as a 500 that says which stage and what it panicked with, not
// as the bare sentinel.
func TestHandleInferStagePanicIs500WithCause(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srv, err := serve.NewServer(serve.Config{ // no InputShape: the 3-wide row reaches fc1
		Model: nn.NewSequential(nn.NewDense(rng, "fc1", 2, 3)), MaxBatch: 1, BatchTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rec := httptest.NewRecorder()
	handleInfer(srv.Infer, []int{3}, rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"inputs":[[1,2,3]]}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	for _, want := range []string{"stage 0: ", "fc1 forward input [1 3]", serve.ErrInference.Error()} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("500 body %q does not contain %q", rec.Body.String(), want)
		}
	}
}

// discardResponse is the least an http.ResponseWriter can be, so that
// TestHandleInferAllocs counts the handler's allocations, not a
// recorder's.
type discardResponse struct {
	header http.Header
	bytes  int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(b []byte) (int, error) { d.bytes += len(b); return len(b), nil }

// TestHandleInferAllocs: a warmed /infer request costs a small, fixed
// number of allocations, whole pipeline included (AllocsPerRun counts the
// process) — none per row and none per float. Through encoding/json a
// 16×144 request cost more than 150, and more with every row.
func TestHandleInferAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srv, err := serve.NewServer(serve.Config{
		Model:      nn.NewSequential(nn.NewDense(rng, "fc1", 144, 32), nn.NewTanh("t1"), nn.NewDense(rng, "fc2", 32, 10)),
		InputShape: []int{144}, MaxBatch: 64, BatchTimeout: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	measure := func(rows int) float64 {
		body, err := serve.AppendInferRequest(nil, tensor.RandUniform(rng, -1, 1, rows, 144).Data, rows)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/infer", nil)
		req.ContentLength = int64(len(body))
		rd := bytes.NewReader(body)
		w := &discardResponse{header: http.Header{}}
		return testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			w.bytes = 0
			handleInfer(srv.Infer, []int{144}, w, req)
			if w.bytes == 0 {
				t.Fatal("no response written")
			}
		})
	}
	small, large := measure(16), measure(64)
	t.Logf("allocations per request: %.1f at 16 rows, %.1f at 64 rows", small, large)
	if small > 32 || large > small+2 {
		t.Fatalf("allocations per request: %.1f at 16 rows, %.1f at 64 rows; want ≤ 32 and no growth with rows", small, large)
	}
}

// TestImagesCutIsUnchanged pins the cut pipedream-serve prints for the
// images task on its forward profile to the one the training profile
// gave: conv1..r1 | conv2..fc on two stages, conv2 alone in the middle of
// three. The two-stage choice rests on conv1+r1 against r2+flat+fc, about
// 1.7× apart in forward time on one timed minibatch, so timer noise flips
// a single measurement now and then: the test holds the cut most of seven
// plans make.
func TestImagesCutIsUnchanged(t *testing.T) {
	for stages, want := range map[int]string{2: "conv1..r1 | conv2..fc", 3: "conv1..r1 | conv2..conv2 | r2..fc"} {
		mdl := &cliconf.Model{Task: "images", Seed: 42, Stages: stages, Replicas: 1}
		task, err := mdl.Build()
		if err != nil {
			t.Fatal(err)
		}
		cuts := map[string]int{}
		for range 7 {
			plan, err := mdl.ServePlan(task)
			if err != nil {
				t.Fatal(err)
			}
			cuts[cliconf.Cuts(plan, task.Factory())]++
		}
		if cuts[want] < 4 {
			t.Errorf("%d stages: cuts %v, want mostly %s", stages, cuts, want)
		}
	}
}
