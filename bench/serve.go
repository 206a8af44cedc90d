package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/profile"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
)

// The serving deployment under test: pipedream-serve -task images
// -stages 2 -replicas 2 -route least-in-flight.
const (
	serveTask     = "images"
	serveStages   = 2
	serveReplicas = 2
	// openLoopRate is phase A's fixed arrival rate, far below saturation,
	// so its latency is batcher timeout plus front door, not queueing.
	openLoopRate = 150.0
	// closedLoopRows fills a batch per request, so phase B's batches
	// dispatch at once instead of waiting out BatchTimeout.
	closedLoopRows = serve.DefaultMaxBatch
	poolRows       = 256
	// closedLoopSlice is the least length of a phase B slice: short enough
	// that the phase holds some fifty of them, long enough that the server's
	// CPU time, which /proc reports in 10 ms ticks, is read to a few parts
	// in a hundred.
	closedLoopSlice = 250 * time.Millisecond
	// The server is set up this many times before the two phases and this
	// many times after them; setup_s is taken over all of them.
	serveSetupsBefore, serveSetupsAfter = 8, 7
)

// closedLoopClients is phase B's caller count: four per open-loop client,
// so that each replica always has a request queued behind the one it is
// running. With one caller per core the callers and the server fall into
// lock-step, the server idles while answers are read, and how much it
// idles differs from run to run by a fifth of the throughput.
func closedLoopClients() int { return 4 * clients() }

// rowPool is the seeded request population: poolRows input rows, their
// reference outputs from a forward pass of the same model the server
// builds from the same seed, and pre-encoded request bodies (so the load
// generator spends its time waiting, not encoding).
type rowPool struct {
	shape   []int
	rowSize int
	outSize int
	rows    []float32
	ref     []float32
	bodies  map[int][][]byte // rows per request → body per group
}

func newRowPool(seed int64, task *cliconf.Task) *rowPool {
	p := &rowPool{shape: append([]int(nil), task.Eval.Batch(0).X.Shape[1:]...), rowSize: 1, bodies: map[int][][]byte{}}
	for _, d := range p.shape {
		p.rowSize *= d
	}
	x := tensor.RandUniform(rand.New(rand.NewSource(seed+7)), -1, 1, append([]int{poolRows}, p.shape...)...)
	y, _ := task.Factory().Forward(x, false)
	p.rows, p.ref, p.outSize = x.Data, y.Data, y.Size()/poolRows
	for _, n := range []int{1, closedLoopRows} {
		for g := 0; g < poolRows/n; g++ {
			var req struct {
				Inputs [][]float32 `json:"inputs"`
			}
			for i := g * n; i < (g+1)*n; i++ {
				req.Inputs = append(req.Inputs, p.rows[i*p.rowSize:(i+1)*p.rowSize])
			}
			b, _ := json.Marshal(req) // slices of float32 cannot fail to encode
			p.bodies[n] = append(p.bodies[n], b)
		}
	}
	return p
}

// first is the pool row that request i of n rows starts at.
func (p *rowPool) first(i, n int) int { return i % (poolRows / n) * n }

func (p *rowPool) body(i, n int) []byte { return p.bodies[n][i%(poolRows/n)] }

func (p *rowPool) tensor(i, n int) *tensor.Tensor {
	lo := p.first(i, n) * p.rowSize
	return tensor.FromSlice(p.rows[lo:lo+n*p.rowSize], append([]int{n}, p.shape...)...)
}

// matches reports whether out is request i's reference output: every
// value within 1e-5 and every row's argmax equal.
func (p *rowPool) matches(i, n int, out []float32) bool {
	want := p.ref[p.first(i, n)*p.outSize:][:n*p.outSize]
	if len(out) != len(want) {
		return false
	}
	for r := 0; r < n; r++ {
		got, ref := out[r*p.outSize:(r+1)*p.outSize], want[r*p.outSize:(r+1)*p.outSize]
		bestGot, bestRef := 0, 0
		for j := range got {
			if math.Abs(float64(got[j]-ref[j])) > 1e-5 {
				return false
			}
			if got[j] > got[bestGot] {
				bestGot = j
			}
			if ref[j] > ref[bestRef] {
				bestRef = j
			}
		}
		if bestGot != bestRef {
			return false
		}
	}
	return true
}

// buildServer compiles cmd/pipedream-serve into the checkout's
// .bench_build directory (a no-op when it is up to date) and returns the
// binary's path and the build time.
func buildServer(root string) (string, float64, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "pipedream-serve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pipedream-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pipedream-serve: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// server is one running pipedream-serve child.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	exited chan struct{}
}

// startServer starts the binary on a free loopback port and waits until
// /healthz answers. The child is stopped by stop, which the run's
// cleanup also calls on every exit path.
func startServer(r *run, bin string, extra ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := append([]string{
		"-task", serveTask, "-seed", fmt.Sprint(r.seed), "-stages", fmt.Sprint(serveStages),
		"-replicas", fmt.Sprint(serveReplicas), "-route", string(fleet.LeastInFlight), "-addr", addr,
	}, extra...)
	s := &server{cmd: exec.Command(bin, args...), url: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = io.Discard, os.Stderr
	n := closedLoopClients()
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	r.cleanup = append(r.cleanup, s.stop)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if resp, err := s.client.Get(s.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("pipedream-serve exited before it was ready")
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("pipedream-serve not ready after 20 s")
		}
	}
}

// stop asks the child to shut down (it then writes its trace files),
// kills it if it does not, and waits until it has exited. Safe to call
// more than once.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// phase is the outcome of one load phase. Every request sent is ok,
// shed (429) or failed (transport error, other status, wrong output).
type phase struct {
	sent, ok, shed, failed int
	latency, late          []float64 // seconds; latency only for ok requests
	wall                   float64
}

func (p *phase) counts() map[string]int {
	return map[string]int{"sent": p.sent, "succeeded": p.ok, "shed": p.shed, "failed": p.failed}
}

// request posts pool request i of n rows and classifies the answer.
func (s *server) request(r *run, pool *rowPool, i, n int) (ok, shed bool) {
	var out struct {
		Outputs [][]float32 `json:"outputs"`
	}
	var status int
	err := r.rec.call(-1, "http", "POST /infer", func(int) error {
		resp, err := s.client.Post(s.url+"/infer", "application/json", bytes.NewReader(pool.body(i, n)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if status = resp.StatusCode; status != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	if err != nil || status != http.StatusOK {
		return false, status == http.StatusTooManyRequests
	}
	flat := make([]float32, 0, n*pool.outSize)
	for _, row := range out.Outputs {
		flat = append(flat, row...)
	}
	if !pool.matches(i, n, flat) {
		r.problem("serve-http: response to request %d (%d rows) differs from the reference forward", i, n)
		return false, false
	}
	return true, false
}

// drive runs one load phase for d. With rate > 0 it is an open loop from
// clients() goroutines: request i is due at i/rate, a client sleeps
// until then, and latency counts from the due time, so a stall is charged
// to every request it delays. With rate 0 it is a closed loop from
// closedLoopClients() goroutines: each sends its next request when the
// previous one returns. m, when not nil, is told of every successful
// request.
func (s *server) drive(r *run, pool *rowPool, rows int, rate float64, d time.Duration, m *meter) *phase {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	p := &phase{}
	t0 := time.Now()
	callers := clients()
	if rate == 0 {
		callers = closedLoopClients()
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := time.Now()
				if rate > 0 {
					due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				if due.Sub(t0) >= d {
					return
				}
				late := time.Since(due).Seconds()
				ok, shed := s.request(r, pool, i, rows)
				lat := time.Since(due).Seconds()
				mu.Lock()
				p.sent++
				p.late = append(p.late, late)
				switch {
				case ok:
					p.ok++
					p.latency = append(p.latency, lat)
					m.done(1)
				case shed:
					p.shed++
				default:
					p.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	return p
}

// serveSetup is what a user waits for before the first useful answer:
// process start, readiness, one verified response, and a warm-up of both
// request sizes.
func serveSetup(r *run, bin string, pool *rowPool, extra ...string) (*server, error) {
	s, err := startServer(r, bin, extra...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		for _, rows := range []int{1, closedLoopRows} {
			if ok, _ := s.request(r, pool, i, rows); !ok {
				return nil, fmt.Errorf("serve-http: warm-up request %d (%d rows) failed", i, rows)
			}
		}
	}
	return s, nil
}

// repeatServeSetup sets up n times, stopping every server but the last,
// and returns that server with each set-up's seconds.
func repeatServeSetup(r *run, bin string, pool *rowPool, n int) (s *server, seconds []float64, err error) {
	for i := 0; i < n; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		if s, err = serveSetup(r, bin, pool); err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return s, seconds, nil
}

// serveInputs builds the server binary and the seeded request pool.
func serveInputs(r *run) (bin string, pool *rowPool, err error) {
	bin, buildS, err := buildServer(r.root)
	if err != nil {
		return "", nil, err
	}
	r.note("build_s", buildS)
	task, err := (&cliconf.Model{Task: serveTask, Seed: r.seed}).Build()
	if err != nil {
		return "", nil, err
	}
	return bin, newRowPool(r.seed, task), nil
}

// runServeEndToEnd is the instrumentation-off run of serve-http.
func runServeEndToEnd(r *run) error {
	bin, pool, err := serveInputs(r)
	if err != nil {
		return err
	}
	s, setups, err := repeatServeSetup(r, bin, pool, serveSetupsBefore)
	if err != nil {
		return err
	}
	a := s.drive(r, pool, 1, openLoopRate, r.duration(0.5), nil)
	pid := s.cmd.Process.Pid
	m := &meter{cpu: func() (float64, error) { return procCPUSeconds(pid) }, every: closedLoopSlice}
	m.start()
	b := s.drive(r, pool, closedLoopRows, 0, r.duration(0.5), m)
	m.finish()
	if a.ok == 0 || b.ok == 0 {
		return fmt.Errorf("serve-http: no successful requests (phase A %v, phase B %v)", a.counts(), b.counts())
	}
	rss, err := procPeakRSSMB(pid)
	if err != nil {
		return err
	}
	s.stop()
	s, after, err := repeatServeSetup(r, bin, pool, serveSetupsAfter)
	if err != nil {
		return err
	}
	s.stop()
	setups = append(setups, after...)
	latency := make([]float64, len(a.latency))
	for i, l := range a.latency {
		latency[i] = l * 1e3
	}
	r.note("phase_a_open_loop", a.counts())
	r.note("phase_b_closed_loop", b.counts())
	r.note("lat_ms_p50", median(latency))
	r.note("lat_ms_p90", quantile(latency, 0.9))
	r.note("lat_ms_p99", quantile(latency, 0.99))
	r.sample("call_ms", latency)
	r.attempted, r.failed = a.sent+b.sent, a.sent-a.ok+b.sent-b.ok
	return r.setEndToEnd(setups, m, quantile(latency, undisturbed), rss)
}

// runServeTraced is the instrumented run: the server writes its op log
// and the benchmark wraps every request in a span; /healthz supplies the
// batcher and router counts.
func runServeTraced(r *run) error {
	bin, pool, err := serveInputs(r)
	if err != nil {
		return err
	}
	serverTrace := filepath.Join(r.tmpDir, "server-trace.json")
	var s *server
	if err := r.rec.call(-1, "bench", "setup", func(int) (err error) {
		s, err = serveSetup(r, bin, pool, "-trace-out", serverTrace)
		return err
	}); err != nil {
		return err
	}
	a := s.drive(r, pool, 1, openLoopRate, r.duration(0.3), nil)
	b := s.drive(r, pool, closedLoopRows, 0, r.duration(0.3), nil)
	var health struct {
		serve.Stats
		Fleet fleet.Stats
	}
	if err := s.getJSON("/healthz", &health); err != nil {
		return err
	}
	s.stop()
	r.note("phase_a_open_loop", a.counts())
	r.note("phase_b_closed_loop", b.counts())
	r.attempted, r.failed = a.sent+b.sent, a.sent-a.ok+b.sent-b.ok
	if a.ok == 0 {
		return fmt.Errorf("serve-http: no successful phase A requests: %v", a.counts())
	}
	if raw, err := os.ReadFile(serverTrace); err == nil {
		// The server's timeline starts at its own first op, not at the
		// benchmark's origin; it is merged for inspection, not alignment.
		if err := json.Unmarshal(raw, &r.runtimeEvents); err != nil {
			return fmt.Errorf("server trace: %w", err)
		}
	} else {
		return fmt.Errorf("server wrote no trace: %w", err)
	}

	inproc, err := measureInprocServe(r)
	if err != nil {
		return err
	}
	var minPicks, maxPicks, sumPicks float64
	replicas := health.Fleet.Tenants[0].Replicas
	for i, rs := range replicas {
		p := float64(rs.Picks)
		sumPicks += p
		if i == 0 || p < minPicks {
			minPicks = p
		}
		maxPicks = max(maxPicks, p)
	}
	r.set("http.overhead_p50_us", median(a.latency)*1e6-inproc.p50Us)
	r.set("http.lat_p50_us", median(a.latency)*1e6)
	r.set("http.lat_p90_us", quantile(a.latency, 0.9)*1e6)
	r.set("http.lat_p99_us", quantile(a.latency, 0.99)*1e6)
	r.set("loadgen.late_p99_us", quantile(a.late, 0.99)*1e6)
	r.set("serve.mean_batch_rows", health.MeanBatchRows)
	r.set("serve.batches_per_s", float64(health.Batches)/(a.wall+b.wall))
	r.set("serve.shed_share", ratio(float64(health.Shed), float64(health.Requests)))
	r.set("fleet.picks_imbalance", ratio(maxPicks-minPicks, sumPicks/float64(len(replicas))))
	r.set("tensor.pool_hit_ratio", inproc.poolHit)
	r.set("proc.allocs_per_op", inproc.allocsPerOp)
	r.set("proc.gc_pause_ms", inproc.gcPauseMs)

	// The layers under the server, on the served model.
	task, err := (&cliconf.Model{Task: serveTask, Seed: r.seed}).Build()
	if err != nil {
		return err
	}
	tensor.SetParallelism(max(1, runtime.NumCPU()/serveStages))
	var prof *profile.ModelProfile
	if err := r.rec.call(-1, "profile", "profile.Measure", func(int) error {
		prof = profile.Measure(task.Factory(), serveTask, task.Train, 4)
		return prof.Validate()
	}); err != nil {
		return err
	}
	r.set("profile.measure_ms", median(r.rec.durations("profile.Measure"))*1e3)
	if err := timePlanner(r, prof, topology.Flat(serveStages, linkBandwidth(false), topology.V100)); err != nil {
		return err
	}
	single := measureSingleWorker(task.Factory(), task.Train, 0.05, r.duration(0.05))
	r.set("nn.fwd_us", single.fwdUs)
	r.set("nn.bwd_us", single.bwdUs)
	r.set("nn.opt_us", single.optUs)
	r.set("nn.single_worker_mb_per_s", single.perSecond)
	r.notApplicable(trainOnly...)
	return nil
}

// trainOnly and serveHTTPOnly are the per-layer metrics that exist on
// only one kind of workload; the other kind reports them as 0.
var (
	trainOnly = []string{
		"pipeline.compute_share", "pipeline.idle_share", "pipeline.sync_share", "pipeline.bubble_bottleneck",
		"pipeline.bubble_max", "pipeline.overhead_us_per_op", "pipeline.speedup_vs_single", "pipeline.peak_stash_bytes",
		"pipeline.mean_staleness", "pipeline.max_staleness", "pipeline.nondet_losses", "pipeline.trace_overhead_pct",
		"pipeline.loss_ratio", "pipeline.call_ms_p50", "pipeline.call_ms_p90", "collective.sync_wait_share", "collective.sync_first_wait_share",
		"partition.pred_stage_err_pct", "cluster.pred_mb_per_s", "cluster.pred_err_pct",
		"transport.tcp_vs_chan_ratio", "transport.wire_bytes_per_mb", "transport.send_errors", "transport.reconnects",
	}
	serveHTTPOnly = []string{
		"http.overhead_p50_us", "http.lat_p50_us", "http.lat_p90_us", "http.lat_p99_us", "loadgen.late_p99_us", "serve.mean_batch_rows",
		"serve.batches_per_s", "serve.shed_share", "fleet.picks_imbalance",
	}
)
