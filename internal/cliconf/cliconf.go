// Package cliconf factors the flag surface the pipedream command-line
// binaries share (pipedream-train, pipedream-serve, pipedream-profile,
// pipedream-loadgen) out of their mains: each configuration group is a
// struct with a Register method that declares its flags on a FlagSet —
// using the struct's current field values as the defaults, so each
// binary presets what differs — and a Build (or equivalent) method that
// turns the parsed values into the runtime configuration the internal
// packages consume. The task zoo, the planner and the buffer sizing live here
// too, so pipedream-profile measures the model the runtime trains, and
// every process of a distributed run derives the identical model, plan
// (from one plan file), and transport sizing from the identical flags.
package cliconf

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/profile"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/trace"
	"pipedream/internal/transport"
)

// Model selects the demo task and the pipeline shape: which model/
// dataset pair to build, the shared seed every process must agree on,
// and a plan file or the stages and first-stage replicas to cut.
type Model struct {
	// Task names the demo task: spiral, images, or sequence.
	Task string
	// Seed is the shared random seed; distributed processes must agree.
	Seed int64
	// Stages is the number of pipeline stages.
	Stages int
	// Replicas is the replication factor of the first stage (1F1B-RR).
	Replicas int
	// PlanFile, when set, is the plan pipedream-optimizer -o wrote.
	PlanFile string
}

// Register declares every model/task flag — task selection, the full
// training pipeline shape and a plan file — defaulting to the current
// field values. Binaries that consume only part of the surface register
// the narrower subsets (RegisterForward, RegisterTask) so no flag is
// parsed and then silently ignored.
func (c *Model) Register(fs *flag.FlagSet) {
	c.RegisterTask(fs)
	fs.IntVar(&c.Stages, "stages", c.Stages, "pipeline stages, cut on the model's measured profile")
	fs.IntVar(&c.Replicas, "replicas", c.Replicas, "replicas of the first stage (1F1B-RR)")
	fs.StringVar(&c.PlanFile, "plan", c.PlanFile, "plan JSON written by pipedream-optimizer -o: its stages, replicas and depth (overrides -stages and -replicas)")
}

// RegisterForward declares task selection plus stage count, without the
// training-only -replicas (serving runs one worker per stage).
func (c *Model) RegisterForward(fs *flag.FlagSet) {
	c.RegisterTask(fs)
	fs.IntVar(&c.Stages, "stages", c.Stages, "pipeline stages, cut on the model's measured forward pass")
}

// RegisterTask declares only the task-selection flags: enough to rebuild
// the model and its datasets, with no pipeline shape at all.
func (c *Model) RegisterTask(fs *flag.FlagSet) {
	fs.StringVar(&c.Task, "task", c.Task, "demo task: spiral, images, or sequence")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "random seed (must match across distributed processes)")
}

// Task is one demo task: a model factory plus its train/eval datasets
// and per-task optimizer.
type Task struct {
	// Factory builds a fresh model with deterministically seeded weights.
	Factory func() *nn.Sequential
	// Train is the training dataset, generated when first read.
	Train data.Dataset
	// Eval is the held-out evaluation dataset.
	Eval data.Dataset
	// NewOptimizer builds the task's optimizer.
	NewOptimizer func() nn.Optimizer
}

// Build resolves the named task. Every process calling Build with the
// same Task/Seed gets bit-identical initial weights and data.
func (c *Model) Build() (*Task, error) {
	seed := c.Seed
	switch c.Task {
	case "spiral":
		return &Task{
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					nn.NewDense(rng, "fc1", 2, 32),
					nn.NewTanh("t1"),
					nn.NewDense(rng, "fc2", 32, 32),
					nn.NewTanh("t2"),
					nn.NewDense(rng, "fc3", 32, 3),
				)
			},
			Train:        &lazy{sync.OnceValue(func() data.Dataset { return data.NewSpiral(seed+1, 3, 16, 50) })},
			Eval:         data.NewSpiral(seed+2, 3, 32, 8),
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		}, nil
	case "images":
		return &Task{
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				g1 := tensor.ConvGeom{InC: 1, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
				g2 := tensor.ConvGeom{InC: 8, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
				return nn.NewSequential(
					nn.NewConv2D(rng, "conv1", g1, 8),
					nn.NewReLU("r1"),
					nn.NewConv2D(rng, "conv2", g2, 8),
					nn.NewReLU("r2"),
					nn.NewFlatten("flat"),
					nn.NewDense(rng, "fc", 8*12*12, 4),
				)
			},
			Train:        &lazy{sync.OnceValue(func() data.Dataset { return data.NewImages(seed+1, 4, 1, 12, 16, 30) })},
			Eval:         data.NewImages(seed+2, 4, 1, 12, 32, 6),
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0.9, 0) },
		}, nil
	case "sequence":
		return &Task{
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					nn.NewEmbedding(rng, "emb", 10, 16),
					nn.NewLSTM(rng, "lstm1", 16, 32),
					nn.NewLSTM(rng, "lstm2", 32, 32),
					nn.NewFlattenTime("ft"),
					nn.NewDense(rng, "dec", 32, 10),
				)
			},
			Train:        &lazy{sync.OnceValue(func() data.Dataset { return data.NewSequenceCopy(seed+1, 10, 8, 16, 40) })},
			Eval:         data.NewSequenceCopy(seed+2, 10, 8, 32, 6),
			NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
		}, nil
	}
	return nil, fmt.Errorf("unknown task %q (want spiral, images, or sequence)", c.Task)
}

// lazy is a dataset generated the first time something reads it.
type lazy struct{ get func() data.Dataset }

// Name implements data.Dataset.
func (l *lazy) Name() string { return l.get().Name() }

// NumBatches implements data.Dataset.
func (l *lazy) NumBatches() int { return l.get().NumBatches() }

// Batch implements data.Dataset.
func (l *lazy) Batch(i int) data.Batch { return l.get().Batch(i) }

// ProfileBatches is the number of minibatches a planner profiles over.
const ProfileBatches = 1

// Profile measures a fresh model of the task, named after it, over batches
// training minibatches at the kernel degree each of workers in-process
// workers gets (tensor.ScopeParallelism): the runtime's view (§3.1).
func (c *Model) Profile(task *Task, workers, batches int) *profile.ModelProfile {
	defer tensor.ScopeParallelism(workers)()
	return profile.Measure(task.Factory(), c.Task, task.Train, batches)
}

// Plan is the runtime binaries' one planner, the optimize step of the
// paper's workflow (§3.1, Fig. 6): the PlanFile pipedream-optimizer -o
// wrote, refused if for another model or other layers and priced at one
// worker per process, or else Stages stages, the first replicated Replicas
// times, cut on a profile measured at the degree those workers run at.
func (c *Model) Plan(task *Task) (*partition.Plan, error) {
	if c.PlanFile == "" {
		return Cut(c.Profile(task, max(1, c.Stages-1+c.Replicas), ProfileBatches), c.Stages, c.Replicas)
	}
	f, err := os.Open(c.PlanFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	plan, err := partition.ReadJSON(f, c.Profile(task, 1, ProfileBatches), link(math.MaxInt32)) // any width prices alike
	if err != nil {
		err = fmt.Errorf("-plan %s: %w", c.PlanFile, err)
	}
	return plan, err
}

// ServePlan is pipedream-serve's planner: Stages stages, one worker each,
// cut on the pass they run, the forward of the first Eval batch
// (profile.MeasureForward), at the degree those workers run at. It reads
// no training data.
func (c *Model) ServePlan(task *Task) (*partition.Plan, error) {
	defer tensor.ScopeParallelism(max(1, c.Stages))()
	return Cut(profile.MeasureForward(task.Factory(), c.Task, task.Eval, ProfileBatches), c.Stages, 1)
}

// Cut prices stages stages of prof, the first replicated replicas times,
// on the runtime's link, balanced by partition.BalanceStages.
func Cut(prof *profile.ModelProfile, stages, replicas int) (*partition.Plan, error) {
	if n := prof.NumLayers(); stages < 1 || stages > n || replicas < 1 {
		return nil, fmt.Errorf("need 1 to %d stages and at least one replica, got %d stages and %d replicas", n, stages, replicas)
	}
	specs := partition.BalanceStages(prof, stages, replicas)
	return partition.NewPlan(prof, link(stages-1+replicas), partition.PlanOptions{Stages: specs})
}

// Cuts renders the plan's stages by layer name, e.g. "conv1..r1 | conv2..fc".
func Cuts(plan *partition.Plan, model *nn.Sequential) string {
	parts := make([]string, len(plan.Stages))
	for i, st := range plan.Stages {
		parts[i] = model.Layers[st.FirstLayer].Name() + ".." + model.Layers[st.LastLayer].Name()
	}
	return strings.Join(parts, " | ")
}

// link is the topology a run is priced on: one flat link taken to carry
// 1 GB/s.
func link(workers int) *topology.Topology {
	return topology.Flat(workers, 1e9, topology.V100)
}

// BuildPlan cuts the model on a fabricated profile of equal layers.
//
// Deprecated: use Model.Plan; only the benchmark harness calls this, and
// the last parameter has one legal value, partition.SyncRing.
func BuildPlan(model *nn.Sequential, stages, replicas int, _ partition.SyncModel) (*partition.Plan, error) {
	prof := &profile.ModelProfile{Model: "cli", MinibatchSize: 1, InputBytes: 4}
	for _, l := range model.Layers {
		prof.Layers = append(prof.Layers, profile.LayerProfile{Name: l.Name(), FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4})
	}
	return Cut(prof, stages, replicas)
}

// Buffer sizes per-worker transport inboxes for a training run of plan
// on model by pipeline.InboxSize, the rule the runtime sizes its own
// transport by.
func Buffer(plan *partition.Plan, model *nn.Sequential, sc pipeline.SyncConfig) int {
	// A plan that does not cover model is pipeline.New's error to report.
	stages, _ := plan.StageSlices(model)
	return pipeline.InboxSize(plan, stages, sc.BucketBytes)
}

// Sync configures the replicated-stage gradient collective.
type Sync struct {
	// BucketBytes is the ring collective's gradient bucket size floor
	// (see pipeline.SyncConfig.BucketBytes).
	BucketBytes int
}

// Register declares the gradient-sync flag, defaulting to the current
// field value.
func (c *Sync) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.BucketBytes, "bucket-bytes", c.BucketBytes, "ring all-reduce gradient bucket size floor in bytes: a bucket of whole tensors closes at the first tensor that reaches it (0 = 256KiB default; must match across workers)")
}

// Build returns the runtime's SyncConfig. The planner prices the one
// collective the runtime runs, so there is no cost model to pick with it.
func (c *Sync) Build() pipeline.SyncConfig {
	return pipeline.SyncConfig{BucketBytes: c.BucketBytes}
}

// Fault configures checkpointing and failure recovery.
type Fault struct {
	// Dir is the checkpoint directory ("" disables checkpointing).
	Dir string
	// Every checkpoints every K minibatches at a drain barrier.
	Every int
	// Resume restores from the latest complete generation before training.
	Resume bool
	// MaxRecoveries bounds automatic restore-and-resume attempts.
	MaxRecoveries int
	// Watchdog is the per-worker no-progress timeout (0 disables).
	Watchdog time.Duration
	// Heartbeat is the liveness-probe period (0 disables).
	Heartbeat time.Duration
}

// Register declares the fault-tolerance flags, defaulting to the current
// field values.
func (c *Fault) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "checkpoint-dir", c.Dir, "directory for per-stage checkpoint generations")
	fs.StringVar(&c.Dir, "checkpoint", c.Dir, "alias for -checkpoint-dir")
	fs.IntVar(&c.Every, "checkpoint-every", c.Every, "also checkpoint every K minibatches at a pipeline drain barrier (0 = run boundaries only)")
	fs.BoolVar(&c.Resume, "resume", c.Resume, "restore from the latest complete checkpoint generation in -checkpoint-dir and continue")
	fs.IntVar(&c.MaxRecoveries, "max-recoveries", c.MaxRecoveries, "automatic restore-and-resume attempts on a detected worker failure (0 = fail fast)")
	fs.DurationVar(&c.Watchdog, "watchdog", c.Watchdog, "per-worker no-progress timeout before the failure detector trips (0 = disabled)")
	fs.DurationVar(&c.Heartbeat, "heartbeat", c.Heartbeat, "period of liveness probes to pipeline neighbours (0 = disabled)")
}

// Build returns the runtime's FaultConfig. (Resume is acted on by the
// binary after construction — it needs the built pipeline.)
func (c *Fault) Build() pipeline.FaultConfig {
	return pipeline.FaultConfig{
		CheckpointDir:   c.Dir,
		CheckpointEvery: c.Every,
		MaxRecoveries:   c.MaxRecoveries,
		WatchdogTimeout: c.Watchdog,
		HeartbeatEvery:  c.Heartbeat,
	}
}

// Chaos configures seeded transport fault injection.
type Chaos struct {
	// Drop, Delay, and Dup are per-message fault probabilities.
	Drop, Delay, Dup float64
	// MaxDelay bounds injected delivery delays.
	MaxDelay time.Duration
	// Seed fixes the fault schedule.
	Seed int64
}

// Register declares the chaos flags, defaulting to the current field
// values.
func (c *Chaos) Register(fs *flag.FlagSet) {
	fs.Float64Var(&c.Drop, "chaos-drop", c.Drop, "chaos: probability a transport message is silently dropped")
	fs.Float64Var(&c.Delay, "chaos-delay", c.Delay, "chaos: probability a transport message is delivered late")
	fs.Float64Var(&c.Dup, "chaos-dup", c.Dup, "chaos: probability a transport message is delivered twice")
	fs.DurationVar(&c.MaxDelay, "chaos-max-delay", c.MaxDelay, "chaos: upper bound on injected delivery delays")
	fs.Int64Var(&c.Seed, "chaos-seed", c.Seed, "chaos: seed fixing the fault schedule")
}

// Enabled reports whether any fault probability is set.
func (c *Chaos) Enabled() bool { return c.Drop > 0 || c.Delay > 0 || c.Dup > 0 }

// Wrap wraps inner with the configured fault injector.
func (c *Chaos) Wrap(inner transport.Transport) *transport.Chaos {
	return transport.NewChaos(inner, transport.ChaosConfig{
		Seed:      c.Seed,
		DropRate:  c.Drop,
		DelayRate: c.Delay,
		DupRate:   c.Dup,
		MaxDelay:  c.MaxDelay,
	})
}

// String renders the active fault schedule for a startup log line.
func (c *Chaos) String() string {
	return fmt.Sprintf("seed %d, drop %g, delay %g (max %v), dup %g",
		c.Seed, c.Drop, c.Delay, c.MaxDelay, c.Dup)
}

// Obs configures the observability sinks.
type Obs struct {
	// Show prints live per-stage metric summaries during the run.
	Show bool
	// MetricsOut writes a JSON metrics snapshot to this path at exit.
	MetricsOut string
	// TraceOut writes a Chrome trace-event JSON to this path at exit.
	TraceOut string
	// CPUProfile writes a pprof CPU profile of the run — from Sinks to
	// WriteOutputs — to this path.
	CPUProfile string

	cpuProfile *os.File // open while the profile runs
}

// Register declares the observability flags, defaulting to the current
// field values.
func (c *Obs) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Show, "metrics", c.Show, "collect live per-stage metrics and print the summary table")
	fs.StringVar(&c.MetricsOut, "metrics-out", c.MetricsOut, "write an expvar-style JSON metrics snapshot to this path at end of run (implies -metrics)")
	fs.StringVar(&c.TraceOut, "trace-out", c.TraceOut, "capture the run's op log and write a Chrome trace-event JSON to this path (open in ui.perfetto.dev)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", c.CPUProfile, "write a pprof CPU profile of the run to this path (read with go tool pprof)")
}

// MetricsEnabled reports whether a metrics registry should be attached.
func (c *Obs) MetricsEnabled() bool { return c.Show || c.MetricsOut != "" }

// Sinks returns the registry and op log the flags call for (nil for the
// ones not requested) and starts the CPU profile when one is; every
// binary calls it once, after flag parsing. A profile that cannot be
// started is a warning, not a reason to refuse the run.
func (c *Obs) Sinks() (*metrics.Registry, *metrics.OpLog) {
	var reg *metrics.Registry
	var opLog *metrics.OpLog
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: -cpuprofile: %v\n", err)
		} else {
			c.cpuProfile = f
		}
	}
	if c.MetricsEnabled() {
		reg = metrics.NewRegistry()
	}
	if c.TraceOut != "" {
		opLog = metrics.NewOpLog(0)
	}
	return reg, opLog
}

// WriteOutputs writes the requested end-of-run artifacts: the CPU
// profile Sinks started, the metrics snapshot to MetricsOut and the
// rendered op log to TraceOut. Sinks not requested (or nil) are skipped.
func (c *Obs) WriteOutputs(reg *metrics.Registry, opLog *metrics.OpLog) error {
	if c.cpuProfile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuProfile.Close(); err != nil {
			return err
		}
		c.cpuProfile = nil
	}
	if c.MetricsOut != "" && reg != nil {
		f, err := os.Create(c.MetricsOut)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.TraceOut != "" && opLog != nil {
		f, err := os.Create(c.TraceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteRuntime(f, opLog); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := opLog.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: op log dropped %d events (run is longer than the log capacity)\n", d)
		}
	}
	return nil
}

// Elastic configures the elastic training runtime (pipedream-train
// -elastic): the rescale policy plus an optional scripted membership
// timeline, which is how the CLI demos workers joining and leaving
// without a cluster manager.
type Elastic struct {
	// Enabled turns on elastic training.
	Enabled bool
	// MinWorkers is the fewest live workers to train on; below it the
	// runtime drains and waits for rejoins.
	MinWorkers int
	// Debounce is how long membership must hold still before a rescale
	// acts on it (flapping workers are absorbed).
	Debounce time.Duration
	// Events is the scripted membership timeline (see ParseEvents).
	Events string
}

// Register declares the elastic-runtime flags, defaulting to the current
// field values.
func (c *Elastic) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Enabled, "elastic", c.Enabled, "train on the elastic runtime: follow a membership view, drain to a checkpoint barrier and repartition when workers join or leave")
	fs.IntVar(&c.MinWorkers, "min-workers", c.MinWorkers, "elastic: fewest live workers to train on; below this the runtime drains and blocks until workers rejoin")
	fs.DurationVar(&c.Debounce, "rescale-debounce", c.Debounce, "elastic: how long the membership set must hold still before a rescale acts on it")
	fs.StringVar(&c.Events, "membership-events", c.Events, "elastic: scripted timeline of 'DUR:join:ID' / 'DUR:leave:ID' entries, comma-separated (e.g. '2s:leave:2,5s:join:2'); DUR is measured from training start")
}

// MembershipEvent is one scripted membership change: at offset At from
// training start, worker ID joins (or leaves).
type MembershipEvent struct {
	At   time.Duration
	Join bool
	ID   int
}

// ParseEvents parses the -membership-events timeline into events sorted
// by offset. An empty flag yields no events.
func (c *Elastic) ParseEvents() ([]MembershipEvent, error) {
	if c.Events == "" {
		return nil, nil
	}
	var out []MembershipEvent
	for _, part := range strings.Split(c.Events, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("membership event %q: want DUR:join:ID or DUR:leave:ID", part)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("membership event %q: %v", part, err)
		}
		var join bool
		switch fields[1] {
		case "join":
			join = true
		case "leave":
			join = false
		default:
			return nil, fmt.Errorf("membership event %q: op %q is not join or leave", part, fields[1])
		}
		id, err := strconv.Atoi(fields[2])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("membership event %q: bad worker id %q", part, fields[2])
		}
		out = append(out, MembershipEvent{At: at, Join: join, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// PlayEvents applies a scripted membership timeline to a view in a
// background goroutine, logging each event through logf (nil for quiet).
// Offsets are measured from the call; the goroutine exits after the last
// event.
func PlayEvents(v *membership.View, events []MembershipEvent, logf func(format string, args ...any)) {
	if len(events) == 0 {
		return
	}
	start := time.Now()
	go func() {
		for _, ev := range events {
			if d := time.Until(start.Add(ev.At)); d > 0 {
				time.Sleep(d)
			}
			if ev.Join {
				v.Join(ev.ID, "")
			} else {
				v.Leave(ev.ID)
			}
			if logf != nil {
				op := "leaves"
				if ev.Join {
					op = "joins"
				}
				logf("membership: worker %d %s at +%v (epoch %d)", ev.ID, op, ev.At, v.Epoch())
			}
		}
	}()
}
