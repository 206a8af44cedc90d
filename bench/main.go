// Command bench is the repository's benchmark: four workloads that drive
// 1F1B training through internal/pipeline and serving through the real
// pipedream-serve binary, measured end to end with instrumentation off
// and, in a second traced run, layer by layer. BENCHMARK.json at the
// repository root names the workloads and every metric with its unit;
// README.md here says what each is for.
//
// One run measures one workload:
//
//	bench -workload train-comm -seed 7 -seconds 25 -trace 0
//
// and prints, as its last line, one JSON object with the run's metrics.
// -check runs every workload -repeat times and compares the runs against
// the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"pipedream/internal/tensor"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single list of workload and metric
// names and units, which this program emits from and checks against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the state of one measurement of one workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository root
	outDir   string // bench/out
	tmpDir   string // scratch for checkpoints and child output, inside the checkout
	pid      int
	rec      *recorder // nil unless traced

	values        map[string]float64
	notes         map[string]any       // environment stamp and per-phase counts
	samples       map[string][]float64 // what the medians and quantiles were taken over; result file only
	problemsMu    sync.Mutex           // load-generating clients report problems concurrently
	problems      []string             // correctness failures
	attempted     int
	failed        int
	runtimeEvents []json.RawMessage // the runtime's op log, rendered, for the trace file
	cleanup       []func()          // run on every exit path, last first
}

// duration is the given share of the run's measuring time.
func (r *run) duration(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) note(key string, v any) { r.notes[key] = v }

// sample keeps the values a reported quantile was taken over. They go to
// the result file, not to standard output.
func (r *run) sample(key string, v []float64) {
	if r.samples == nil {
		r.samples = map[string][]float64{}
	}
	r.samples[key] = v
}

// setEndToEnd sets the end-to-end metrics from a run's set-up times, its
// meter, its undisturbed call time and the measured process's peak RSS,
// and keeps the samples behind them for the result file.
func (r *run) setEndToEnd(setups []float64, m *meter, callMs, rssMB float64) error {
	if m.err != nil {
		return m.err
	}
	r.sample("setup_s", setups)
	r.sample("slice_ops_per_s", m.sliceRates())
	r.sample("slice_cpu_s_per_op", m.cpuPerOp)
	r.set("setup_s", quantile(setups, undisturbed))
	r.set("ops_per_s", m.opsPerSecond())
	r.set("call_ms_p05", callMs)
	r.set("cpu_ms_per_op", m.cpuMsPerOp())
	r.set("peak_rss_mb", rssMB)
	return nil
}

// notApplicable reports 0 for per-layer metrics of layers the workload
// does not exercise; BENCHMARK.json requires every name on every run.
func (r *run) notApplicable(names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

// problem records a correctness failure; the run ends with correct=false
// and a non-zero exit.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problemsMu.Lock()
	r.problems = append(r.problems, msg)
	r.problemsMu.Unlock()
	fmt.Fprintln(os.Stderr, "bench: FAIL:", msg)
}

func (r *run) runCleanup() {
	for i := len(r.cleanup) - 1; i >= 0; i-- {
		r.cleanup[i]()
	}
	r.cleanup = nil
}

func (r *run) writeTrace() error {
	path := filepath.Join(r.outDir, r.workload+".trace.json")
	r.note("trace_file", path)
	return r.rec.writeTrace(path, r.runtimeEvents)
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for weights, datasets and request order")
	seconds := flag.Float64("seconds", 0, "measuring time of the run (default: run_seconds of BENCHMARK.json)")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics, instrumentation off; 1: per-layer metrics from a traced run")
	root := flag.String("root", "..", "repository root (the directory holding BENCHMARK.json)")
	check := flag.Bool("check", false, "run every workload -repeat times and compare the end-to-end metrics with their bounds")
	repeat := flag.Int("repeat", 2, "runs per workload under -check")
	flag.Parse()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(absRoot)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *check {
		os.Exit(runCheck(spec, absRoot, *repeat, *seed, *seconds))
	}

	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traceOn != 0,
		root: absRoot, outDir: filepath.Join(absRoot, "bench", "out"),
		pid: os.Getpid(), values: map[string]float64{}, notes: map[string]any{},
	}
	r.tmpDir = filepath.Join(r.outDir, fmt.Sprintf("tmp-%d", r.pid))
	if err := os.MkdirAll(r.tmpDir, 0o755); err != nil {
		fatal(err)
	}
	r.cleanup = append(r.cleanup, func() { os.RemoveAll(r.tmpDir) })
	if r.traced {
		r.rec = newRecorder()
	}
	// SIGINT/SIGTERM still stop the serving child and remove scratch.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.runCleanup()
		os.Exit(130)
	}()

	code := r.main(spec)
	r.runCleanup()
	os.Exit(code)
}

// main measures the workload, prints the result and returns the exit
// code: 0 only when every output was correct and every declared metric
// was measured.
func (r *run) main(spec *benchSpec) int {
	res, err := r.measure(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	declared, kind := spec.EndToEnd, "e2e"
	if r.traced {
		declared, kind = spec.PerLayer, "layers"
	}
	fmt.Printf("workload %s, seed %d, %g s, trace %v\n", r.workload, r.seed, r.seconds, r.traced)
	printSorted("  env  ", r.notes)
	for _, m := range declared {
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	full := map[string]any{"workload": r.workload, "env": r.notes, "problems": r.problems, "samples": r.samples, "result": res}
	b, err := json.MarshalIndent(full, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(r.outDir, fmt.Sprintf("%s.%s.result.json", r.workload, kind)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload (and, traced, the layer suite) and assembles
// the result: exactly the metrics BENCHMARK.json declares for this kind
// of run, each with its declared unit.
func (r *run) measure(spec *benchSpec) (*result, error) {
	r.stampEnvironment()
	err := fmt.Errorf("unknown workload %q", r.workload)
	var train *trainSpec
	for _, s := range trainSpecs {
		if s.name == r.workload {
			train = s
		}
	}
	switch {
	case r.workload == "serve-http" && r.traced:
		err = runServeTraced(r)
	case r.workload == "serve-http":
		err = runServeEndToEnd(r)
	case train != nil && r.traced:
		err = runTrainTraced(r, train)
	case train != nil:
		err = runTrainEndToEnd(r, train)
	}
	if err == nil && r.traced {
		if err = runLayerSuite(r); err == nil {
			r.note("self_seconds_by_layer", r.rec.selfByLayer())
			err = r.writeTrace()
		}
	}
	if err != nil {
		return nil, err
	}
	declared := spec.EndToEnd
	if r.traced {
		declared = spec.PerLayer
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	res.Correct = len(r.problems) == 0 && r.failed == 0
	for _, m := range declared {
		v, ok := r.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return res, nil
}

func printSorted(prefix string, m map[string]any) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s%s = %v\n", prefix, k, m[k])
	}
}

// stampEnvironment records what a number must be tagged with to be
// compared with another: commit, cores, Go version, kernel parallelism.
func (r *run) stampEnvironment() {
	commit := "unknown"
	cmd := exec.Command("git", "-C", r.root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(r.root))
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	r.note("commit", commit)
	r.note("nproc", runtime.NumCPU())
	r.note("gomaxprocs", runtime.GOMAXPROCS(0))
	r.note("go", runtime.Version())
	r.note("kernel_parallelism_default", tensor.Parallelism())
	r.note("seed", r.seed)
	r.note("clients", clients())
	r.note("closed_loop_clients", closedLoopClients())
}

// clients is the number of concurrent open-loop load-generating
// goroutines: one per core, at most four.
func clients() int { return min(runtime.NumCPU(), 4) }

// runCheck runs every workload repeat times, each in a fresh process,
// and prints for each end-to-end metric the values, their spread
// relative to the first and the bound; it returns non-zero when a spread
// exceeds its bound or a run fails.
func runCheck(spec *benchSpec, root string, repeat int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range spec.Workloads {
		runs := make([]result, repeat)
		for i := range runs {
			cmd := exec.Command(self, "-root", root, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if uerr := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil || uerr != nil || !runs[i].Correct {
				fmt.Printf("%s run %d failed: %v\n", w.Name, i, errors.Join(err, uerr))
				code = 1
			}
		}
		for _, m := range spec.EndToEnd {
			first := runs[0].Metrics[m.Name].Value
			worst, vals := 0.0, make([]string, repeat)
			for i, res := range runs {
				v := res.Metrics[m.Name].Value
				vals[i] = fmt.Sprintf("%.4f", v)
				rel := (v - first) / first
				if m.Better == "higher" {
					rel = -rel
				}
				worst = max(worst, rel)
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Printf("%-18s %-14s %-32s worse by %5.1f%%  bound %4.1f%%  %s\n",
				w.Name, m.Name, strings.Join(vals, " "), worst*100, m.Bound*100, verdict)
		}
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
