// Command pipedream-loadgen drives a pipedream-serve instance and
// reports client-side throughput and latency quantiles — the measurement
// harness for the serving runtime's dynamic-batching claims.
//
// Two driving modes:
//
//   - Closed loop (default): -concurrency workers each keep exactly one
//     request outstanding, so offered load adapts to the server — the
//     saturation-throughput measurement.
//   - Open loop (-rate > 0): requests fire on a fixed schedule
//     regardless of completions, so queueing delay shows up in the tail
//     latencies — the latency-under-load measurement.
//
// Against a multi-tenant fleet (pipedream-serve -models) the generator
// can address one tenant (-model name) or drive several at once with
// per-tenant open-loop rates (-models "prod:50,canary:10"), reporting
// outcomes per tenant — the harness for tenancy-isolation measurements.
//
// While driving load the generator also polls the server's /healthz and
// tracks its weight generation: when the server hot-swaps checkpoints
// mid-run (pipedream-serve -follow), the final report shows the
// generation trajectory and whether any failures landed near a swap —
// the zero-downtime check for live retraining (see docs/SERVING.md).
//
// Example:
//
//	pipedream-serve -task spiral -checkpoint-dir /tmp/ckpt -addr :8080 &
//	pipedream-loadgen -addr http://127.0.0.1:8080 -task spiral -concurrency 16 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/metrics"
	"pipedream/internal/serve"
)

func main() {
	mdl := &cliconf.Model{Task: "spiral", Seed: 42}
	fs := flag.CommandLine
	// The load generator only rebuilds the task's datasets client-side;
	// pipeline shape flags (-stages, -replicas) belong to the server.
	mdl.RegisterTask(fs)
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the pipedream-serve instance")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers, each with one request outstanding (ignored when -rate > 0)")
	rate := flag.Float64("rate", 0, "open-loop request rate in req/s (0 = closed loop)")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	requests := flag.Int("requests", 0, "stop after this many requests (0 = run for -duration)")
	rows := flag.Int("rows", 1, "input rows per request")
	model := flag.String("model", "", "tenant to address on a multi-model fleet (\"\" = the server's default tenant)")
	models := flag.String("models", "", "drive several tenants open-loop as name:rate[,name:rate...] req/s (overrides -model, -rate, -concurrency)")
	flag.Parse()

	task, err := mdl.Build()
	if err != nil {
		fatal(err)
	}
	targets, err := buildTargets(*addr, *model, *models, *rate)
	if err != nil {
		fatal(err)
	}
	bodies := buildBodies(task, *rows)
	fmt.Printf("driving %s/infer: task %s, %d rows/request, %s\n",
		*addr, mdl.Task, *rows, modeString(targets, *rate, *concurrency))

	lat := metrics.NewHistogram(metrics.LatencyBuckets())
	var sent, ok, shed, failed atomic.Int64
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(*duration)
	budget := func() bool {
		if *requests > 0 {
			return sent.Add(1) <= int64(*requests)
		}
		sent.Add(1)
		return time.Now().Before(deadline)
	}
	// Failure timestamps are kept so the final report can say whether
	// failures clustered around weight hot-swaps — the whole point of
	// zero-downtime swapping is that they must not.
	var failMu sync.Mutex
	var failTimes []time.Time
	fire := func(i int, tgt *target) {
		body := bodies[i%len(bodies)]
		start := time.Now()
		status, err := post(client, tgt.url, body)
		lat.Observe(float64(time.Since(start).Microseconds()))
		switch {
		case err == nil && status == http.StatusOK:
			ok.Add(1)
			tgt.ok.Add(1)
		case err == nil && status == http.StatusTooManyRequests:
			shed.Add(1)
			tgt.shed.Add(1)
		default:
			failed.Add(1)
			tgt.failed.Add(1)
			failMu.Lock()
			failTimes = append(failTimes, time.Now())
			failMu.Unlock()
		}
	}

	// Watch the server's weight generation over /healthz for the length
	// of the run, recording when hot-swaps land.
	sw := newSwapWatch(client, *addr)
	watchDone := make(chan struct{})
	watchStopped := make(chan struct{})
	go sw.run(watchDone, watchStopped)

	// Snapshot the client process's memory counters around the run: the
	// deltas report loadgen-side allocation and GC-pause cost per
	// request, so client overhead is visible next to the latency numbers
	// it inflates.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	t0 := time.Now()
	var wg sync.WaitGroup
	openLoop := func(tgt *target, rate float64) {
		// Open loop: a ticker fires requests on schedule; each runs in
		// its own goroutine so a slow server cannot slow the schedule.
		defer wg.Done()
		tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
		i := 0
		for range tick.C {
			if !budget() {
				return
			}
			wg.Add(1)
			go func(i int) { defer wg.Done(); fire(i, tgt) }(i)
			i++
		}
	}
	switch {
	case *models != "":
		// Multi-tenant: each tenant runs its own open loop at its own
		// rate, all sharing the request/duration budget.
		for _, tgt := range targets {
			wg.Add(1)
			go openLoop(tgt, tgt.rate)
		}
	case *rate > 0:
		wg.Add(1)
		openLoop(targets[0], *rate)
	default:
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; budget(); i += *concurrency {
					fire(i, targets[0])
				}
			}(w)
		}
	}
	wg.Wait()
	wall := time.Since(t0)
	close(watchDone)
	<-watchStopped
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	n := ok.Load()
	fmt.Printf("completed: %d ok, %d shed (429), %d failed in %v\n", n, shed.Load(), failed.Load(), wall.Round(time.Millisecond))
	if *models != "" {
		for _, tgt := range targets {
			tok := tgt.ok.Load()
			fmt.Printf("tenant %s: %d ok (%.1f req/s of %.1f offered), %d shed, %d failed\n",
				tgt.name, tok, float64(tok)/wall.Seconds(), tgt.rate, tgt.shed.Load(), tgt.failed.Load())
		}
	}
	sw.report(failTimes)
	if n > 0 {
		fmt.Printf("throughput: %.1f req/s, %.1f rows/s\n",
			float64(n)/wall.Seconds(), float64(n*int64(*rows))/wall.Seconds())
		fmt.Printf("latency: mean %.0fus, p50 %.0fus, p95 %.0fus, p99 %.0fus, max %.0fus\n",
			lat.Mean(), lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99), lat.Max())
		mallocs := memAfter.Mallocs - memBefore.Mallocs
		allocBytes := memAfter.TotalAlloc - memBefore.TotalAlloc
		gcs := memAfter.NumGC - memBefore.NumGC
		pause := time.Duration(memAfter.PauseTotalNs - memBefore.PauseTotalNs)
		fmt.Printf("client memory: %.1f allocs/req, %.0f B/req, %d GCs, %v total GC pause\n",
			float64(mallocs)/float64(n), float64(allocBytes)/float64(n), gcs, pause.Round(time.Microsecond))
	}
	// The failed-request count goes on its own final line in a fixed
	// format, so CI scripts and the chaos walkthroughs can assert on the
	// last line of output alone.
	fmt.Printf("failed requests: %d\n", failed.Load())
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

// target is one addressed tenant: its /infer URL (with the ?model=
// selector when named), its open-loop rate in multi-tenant mode, and
// its outcome counters.
type target struct {
	name string
	url  string
	rate float64

	ok, shed, failed atomic.Int64
}

// buildTargets resolves the -model/-models flags into the tenant list
// to drive. A -models spec ("name:rate,...") yields one open-loop
// target per tenant; otherwise the single target is -model (or the
// server's default tenant when unset).
func buildTargets(addr, model, models string, rate float64) ([]*target, error) {
	if models == "" {
		return []*target{{name: orDefault(model), url: inferURL(addr, model), rate: rate}}, nil
	}
	var out []*target
	seen := make(map[string]bool)
	for _, part := range strings.Split(models, ",") {
		name, rateStr, okCut := strings.Cut(strings.TrimSpace(part), ":")
		if !okCut || name == "" {
			return nil, fmt.Errorf("models entry %q: want name:rate", part)
		}
		r, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("models entry %q: rate must be a positive req/s number", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("models entry %q: duplicate tenant %q", part, name)
		}
		seen[name] = true
		out = append(out, &target{name: name, url: inferURL(addr, name), rate: r})
	}
	return out, nil
}

func inferURL(addr, model string) string {
	if model == "" {
		return addr + "/infer"
	}
	return addr + "/infer?model=" + url.QueryEscape(model)
}

func orDefault(model string) string {
	if model == "" {
		return "(default)"
	}
	return model
}

// buildBodies pre-encodes request bodies from the task's eval set so the
// load loop does no JSON work while timing.
func buildBodies(task *cliconf.Task, rows int) [][]byte {
	var bodies [][]byte
	for b := 0; b < task.Eval.NumBatches(); b++ {
		x := task.Eval.Batch(b).X
		rowSize := x.Size() / x.Dim(0)
		for lo := 0; lo+rows <= x.Dim(0); lo += rows {
			body, err := serve.AppendInferRequest(nil, x.Data[lo*rowSize:(lo+rows)*rowSize], rows)
			if err != nil {
				fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	if len(bodies) == 0 {
		fatal(fmt.Errorf("eval set smaller than %d rows per request", rows))
	}
	return bodies
}

// swapWatch polls the server's /healthz during the run and records when
// the reported weight generation changes — each change is a hot-swap
// landing while load is in flight. The final report cross-references
// request failures against these swap times: a server upholding the
// zero-downtime guarantee shows generations advancing with no failures
// near the swaps.
type swapWatch struct {
	client *http.Client
	addr   string

	mu        sync.Mutex
	seen      bool
	first     int64
	last      int64
	swapTimes []time.Time
}

func newSwapWatch(client *http.Client, addr string) *swapWatch {
	return &swapWatch{client: client, addr: addr}
}

// run polls /healthz until done closes. A server without the
// WeightGeneration field (or an unreachable /healthz) just leaves the
// watch empty; the report then stays silent.
func (sw *swapWatch) run(done <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		sw.sample()
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

func (sw *swapWatch) sample() {
	resp, err := sw.client.Get(sw.addr + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st struct {
		WeightGeneration int64
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.seen {
		sw.seen, sw.first, sw.last = true, st.WeightGeneration, st.WeightGeneration
		return
	}
	if st.WeightGeneration != sw.last {
		sw.last = st.WeightGeneration
		sw.swapTimes = append(sw.swapTimes, time.Now())
	}
}

// report prints the generation trajectory and attributes failures to
// swap windows: a failure within swapWindow of an observed swap counts
// as "during swap". Zero is the number to expect.
func (sw *swapWatch) report(failTimes []time.Time) {
	const swapWindow = 500 * time.Millisecond
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.seen {
		return
	}
	if len(sw.swapTimes) == 0 {
		fmt.Printf("weight generation: %d (no swaps observed)\n", sw.last)
		return
	}
	nearSwap := 0
	for _, ft := range failTimes {
		for _, st := range sw.swapTimes {
			if d := ft.Sub(st); d > -swapWindow && d < swapWindow {
				nearSwap++
				break
			}
		}
	}
	fmt.Printf("weight generation: %d → %d, %d hot-swap(s) observed under load\n",
		sw.first, sw.last, len(sw.swapTimes))
	fmt.Printf("failures within %v of a swap: %d of %d\n", swapWindow, nearSwap, len(failTimes))
}

func post(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func modeString(targets []*target, rate float64, concurrency int) string {
	if len(targets) > 1 || (len(targets) == 1 && targets[0].rate > 0 && rate == 0) {
		parts := make([]string, len(targets))
		for i, tgt := range targets {
			parts[i] = fmt.Sprintf("%s at %.1f req/s", tgt.name, tgt.rate)
		}
		return "open loop per tenant: " + strings.Join(parts, ", ")
	}
	if rate > 0 {
		return fmt.Sprintf("open loop at %.1f req/s", rate)
	}
	return fmt.Sprintf("closed loop with %d workers", concurrency)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-loadgen:", err)
	os.Exit(1)
}
