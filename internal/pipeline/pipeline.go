// Package pipeline is PipeDream's execution runtime: it takes a partition
// plan for a real nn model, spins up one goroutine per worker (stage
// replica), and trains with the static 1F1B-RR schedule — every worker
// executes its op list from schedule.Table (warm-up forwards, then one
// backward, one forward), blocking for the message each op needs, so
// which weight version a forward reads never depends on timing;
// minibatches are routed round-robin across stage replicas, and weight
// stashing (optionally vertical sync) keeps gradients numerically correct
// despite pipelined staleness (§3.2-3.3 of the paper). Replicated stages
// synchronize gradients before applying updates through a chunked ring
// all-reduce that overlaps with backward compute and sums in a fixed
// order. Losses and weights are therefore a pure function of
// (seed, plan, depth), whatever the transport or core count. A process
// runs the workers whose inboxes its transport hosts: all of them by
// default, its endpoint's local IDs in a multi-process deployment.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"pipedream/internal/collective"
	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// StalenessMode selects how the runtime handles weight versions across a
// minibatch's forward and backward passes.
type StalenessMode int

// Staleness modes (§3.3).
const (
	// WeightStashing (PipeDream's default): forward uses the latest
	// weights and stashes them; the backward pass reuses the stashed
	// version, so every gradient is valid for the weights that produced
	// it.
	WeightStashing StalenessMode = iota
	// VerticalSync additionally forces every stage to use the weight
	// version the minibatch saw at the input stage, eliminating
	// cross-stage version inconsistency.
	VerticalSync
	// NoStashing is the naive pipeline: backward runs against whatever
	// weights are current, yielding invalid gradients (the ablation that
	// motivates stashing).
	NoStashing
)

// String implements fmt.Stringer.
func (m StalenessMode) String() string {
	switch m {
	case WeightStashing:
		return "weight-stashing"
	case VerticalSync:
		return "vertical-sync"
	case NoStashing:
		return "no-stashing"
	}
	return fmt.Sprintf("StalenessMode(%d)", int(m))
}

// LossFunc computes a scalar loss and its gradient w.r.t. predictions. The
// gradient becomes the sink worker's: it is handed to tensor.Put once the
// minibatch's backward has consumed it, so a LossFunc returns a tensor
// nothing else keeps (nn's losses take theirs from the pool).
type LossFunc func(pred *tensor.Tensor, labels []int) (float64, *tensor.Tensor)

// RuntimeConfig groups the execution-shape options of a Pipeline:
// whether activations are recomputed, and how much kernel-level
// parallelism each worker may use. (How deep the pipeline runs is the
// plan's Depth.) Its fields are promoted into Options, so opts.Recompute
// and friends read and assign directly.
type RuntimeConfig struct {
	// Recompute discards forward activations and recomputes them during
	// the backward pass (GPipe's memory-for-compute trade, §3.3) instead
	// of stashing layer contexts, keeping each stage input to restart
	// from: on a ReLU chain more than the plain stash, a bit per element.
	// Requires deterministic layers (dropout would re-draw its mask during
	// recomputation).
	Recompute bool
	// KernelParallelism, when > 0, sets the tensor package's degree of
	// kernel-level parallelism for this process (tensor.SetParallelism).
	// Kernel chunks from every concurrently executing stage worker are
	// dispatched to tensor's single bounded pool, whose excess-work
	// fallback runs chunks inline in the submitting stage goroutine —
	// so stage-level parallelism × kernel-level parallelism never
	// oversubscribes NumCPU no matter what this is set to. The useful
	// setting when stages are compute-balanced is roughly
	// NumCPU / number-of-workers; when this is left 0 and the
	// PIPEDREAM_PARALLELISM environment variable is not set, Train
	// (static or elastic) lowers the global degree to that value while
	// each chunk's workers run (it never raises it) and restores the
	// previous degree when the chunk drains.
	KernelParallelism int
}

// SyncConfig groups the gradient-synchronization options for replicated
// stages. Its fields are promoted into Options.
type SyncConfig struct {
	// AllReduce names the gradient collective of replicated stages.
	//
	// Deprecated: the only value is collective.Ring, the zero value (a
	// chunked ring all-reduce over the transport, overlapped with backward
	// compute); the field is kept for the benchmark harness.
	AllReduce collective.Method
	// BucketBytes is the ring collective's gradient bucket size, a floor:
	// a bucket of whole tensors closes at the first tensor that takes it
	// to this many bytes, so a larger tensor is a bucket of its own size.
	// 0 selects collective.DefaultBucketBytes. Smaller buckets start
	// reducing earlier (more overlap) at more per-message overhead.
	BucketBytes int
	// GradAccumulation applies the optimizer update only every N
	// backward passes, averaging the accumulated gradients — the weight
	// aggregation technique §3.3 lists for reducing update frequency.
	// 0 or 1 means update every minibatch.
	GradAccumulation int
}

// FaultConfig groups the checkpointing and failure-recovery options. Its
// fields are promoted into Options.
type FaultConfig struct {
	// CheckpointDir, when non-empty, is where Train writes per-stage
	// checkpoint generations (the paper's §4 coordination-free
	// checkpointing) and where recovery restores from.
	CheckpointDir string
	// CheckpointEvery, when > 0, makes Train checkpoint every K
	// minibatches at an epoch-consistent barrier (the pipeline drains
	// between chunks). 0 disables periodic checkpoints; explicit
	// Checkpoint calls still work.
	CheckpointEvery int
	// MaxRecoveries, when > 0 together with CheckpointDir, makes Train
	// supervise failures: on a detected failure (stalled worker, dead
	// peer, closed transport) it drains in-flight work, restores every
	// stage from the last complete checkpoint generation, and resumes —
	// up to this many times before the error surfaces to the caller.
	MaxRecoveries int
	// WatchdogTimeout, when > 0, bounds how long a worker may sit blocked
	// with no progress (no completed op, no accepted message) before the
	// failure detector trips with ErrWorkerStalled. 0 disables the
	// watchdog (the worker blocks indefinitely, as the paper's fault-free
	// runtime does).
	WatchdogTimeout time.Duration
	// HeartbeatEvery, when > 0, makes every worker probe its pipeline
	// neighbours at this period; a dead peer then surfaces as
	// ErrPeerDown at the sender instead of waiting for the watchdog.
	HeartbeatEvery time.Duration
}

// Options configures a Pipeline. The tuning knobs live in three embedded
// config groups — RuntimeConfig (execution shape), SyncConfig (gradient
// collectives), and FaultConfig (checkpointing and recovery) — whose
// fields are promoted, so opts.Recompute, opts.BucketBytes, opts.CheckpointDir
// and friends read and assign exactly as before the split. Composite
// literals name the group: Options{RuntimeConfig: RuntimeConfig{Recompute: true}}.
type Options struct {
	// ModelFactory must return architecturally identical models with
	// identical initial weights on every call (use a fixed seed). New
	// calls it once per replica index the process hosts, and the local
	// workers of replica r run their stages of the r-th model, so the
	// layers of one model must share no state that Forward or Backward
	// changes; New rejects a model whose stages share a layer or a
	// parameter tensor.
	ModelFactory func() *nn.Sequential
	// Plan assigns model layers to stages/replicas (from the optimizer).
	// Activations are routed along the edges of the plan's stage graph:
	// stages with several in-edges join them (sum or concat), stages
	// with several out-edges broadcast forward and sum the returning
	// gradients, and every sink stage computes a loss.
	Plan *partition.Plan
	// Loss runs at the output stage (every sink stage of a DAG plan
	// without a SinkLoss override). A minibatch's reported loss is the
	// sum over sinks.
	Loss LossFunc
	// SinkLoss optionally overrides Loss per sink stage of a DAG plan,
	// keyed by stage index — multi-task heads usually train different
	// objectives.
	SinkLoss map[int]LossFunc
	// NewOptimizer builds one optimizer per worker.
	NewOptimizer func() nn.Optimizer
	// Mode selects the staleness handling; default WeightStashing.
	Mode StalenessMode
	// Transport carries inter-stage messages; default in-process
	// channels. It also decides which of the plan's workers this process
	// runs: those whose inboxes it hosts (transport.Local) — every worker
	// for Channels and NewTCP, the listed IDs for a ListenTCP endpoint of
	// a multi-process deployment.
	Transport transport.Transport
	// Metrics, when non-nil, receives live instrumentation: per-stage
	// forward/backward/sync-wait duration histograms, queue-depth and
	// staleness histograms, stash-bytes gauges, and the tensor arena's
	// hit/miss counters, all registered under "pipeline.s<stage>.r<rep>.*"
	// and "tensor.pool.*". The registry's WriteJSON gives expvar-style
	// snapshots. Enabling it also populates Report.Stages. Nil (the
	// default) keeps the hot path free of clocks and atomics.
	Metrics *metrics.Registry
	// OpLog, when non-nil, captures every forward, backward, and
	// gradient-sync op with real timestamps; render it with
	// trace.WriteRuntime to get the same Chrome/Perfetto timeline the
	// simulator emits, directly comparable to it. Enabling it also
	// populates Report.Stages.
	OpLog *metrics.OpLog

	RuntimeConfig
	SyncConfig
	FaultConfig
}

// instrumented reports whether any observability sink is configured.
func (o *Options) instrumented() bool { return o.Metrics != nil || o.OpLog != nil }

// Report summarizes one Train call.
type Report struct {
	// Losses[i] is the loss of the i-th minibatch of this run, in
	// admission order.
	Losses []float64
	// WallTime is the elapsed training time.
	WallTime time.Duration
	// Samples is the total number of training samples processed.
	Samples int
	// PeakStashBytes is, per local worker in worker-ID order, the peak
	// bytes held for in-flight minibatches: every weight version at least
	// one of them reads — counted once however many hold it, so warm-up
	// forwards that all ran under version 0 count it once — plus the
	// activations their stash entries keep for the backward, the stage
	// input and output while held among them (nn.SeqContext.HeldBytes).
	PeakStashBytes []int64
	// Stages carries per-worker runtime statistics — op counts and
	// durations, sync waits, idle time, bubble fraction, queue depth,
	// and weight staleness — for the local workers in worker-ID order.
	// Nil unless Options.Metrics or Options.OpLog enabled
	// instrumentation. Render with StageSummary.
	Stages []StageStats
	// Faults summarizes this call's failure-path activity: recoveries,
	// checkpoint writes, and transport reconnect/send-error counts.
	Faults FaultStats
	// Rescales records every elastic rescale this call performed — one
	// entry per plan change, with its drain/replan/restart latency split.
	// Empty outside the elastic runtime.
	Rescales []RescaleStats
	// MembershipEpoch is the membership epoch the run ended on (elastic
	// runtime only; zero otherwise).
	MembershipEpoch uint64
}

// Throughput returns samples per second of wall time.
func (r *Report) Throughput() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Samples) / r.WallTime.Seconds()
}

// MeanLoss averages the recorded losses.
func (r *Report) MeanLoss() float64 {
	if len(r.Losses) == 0 {
		return 0
	}
	var s float64
	for _, l := range r.Losses {
		s += l
	}
	return s / float64(len(r.Losses))
}

// Pipeline is a ready-to-train pipeline-parallel model instance: the
// stage workers of one process. Workers persist across Train calls, so
// epoch loops keep optimizer and weight state.
type Pipeline struct {
	opts   Options
	assign *schedule.Assignment
	graph  *partition.StageGraph
	// workers are the stage workers this process hosts, in worker-ID
	// order: all of the plan's when the transport is in-process, the
	// transport's local IDs otherwise.
	workers []*stageWorker
	tr      transport.Transport
	ownTr   bool
	cursor  int
	// lastStats is the transport's counter snapshot at the last fault
	// publication, so per-call deltas can be reported.
	lastStats transport.Stats
}

type lossEvent struct {
	mb   int
	loss float64
}

// New validates options and builds the stage workers this process hosts.
// In a multi-process deployment every process calls New with the same
// plan and its own transport endpoint, and then Train with the same
// minibatch counts.
func New(opts Options) (*Pipeline, error) { return newPipeline(opts, nil) }

// newPipeline is New; when opts.Transport is nil the pipeline makes its
// own with newTr (nil: in-process channels), sized by the first model.
func newPipeline(opts Options, newTr TransportFactory) (*Pipeline, error) {
	if opts.ModelFactory == nil || opts.Plan == nil || opts.Loss == nil || opts.NewOptimizer == nil {
		return nil, fmt.Errorf("pipeline: ModelFactory, Plan, Loss, and NewOptimizer are required")
	}
	graph := opts.Plan.Graph
	if err := graph.Validate(len(opts.Plan.Stages)); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	for s := range opts.SinkLoss {
		if s < 0 || s >= len(opts.Plan.Stages) || len(graph.Succs(s)) != 0 {
			return nil, fmt.Errorf("pipeline: SinkLoss stage %d is not a sink of the plan graph", s)
		}
	}
	p := &Pipeline{opts: opts, assign: schedule.Assign(opts.Plan), graph: graph}
	if opts.Plan.Depth < 1 {
		return nil, fmt.Errorf("pipeline: plan has depth %d (build it with partition.NewPlan)", opts.Plan.Depth)
	}
	if opts.KernelParallelism > 0 {
		tensor.SetParallelism(opts.KernelParallelism)
	}
	p.tr = opts.Transport
	// One factory model per replica index this process hosts, built in
	// replica order: every local worker of replica r runs its stage of
	// model r, so at most one whole model is transient at a time. The
	// first model built checks the plan and, when the pipeline makes its
	// own transport (p.tr is nil until then; it hosts every worker), sizes it.
	byID := make([]*stageWorker, p.assign.NumWorkers())
	replicas, checked := 0, false
	for _, s := range opts.Plan.Stages {
		replicas = max(replicas, s.Replicas)
	}
	for r := 0; r < replicas; r++ {
		var stages []*nn.Sequential
		for w, ref := range p.assign.Workers {
			if ref.Replica != r || p.tr != nil && !transport.Local(p.tr, w) {
				continue
			}
			if stages == nil {
				var err error
				if stages, err = opts.Plan.StageSlices(opts.ModelFactory()); err == nil && !checked {
					err = p.firstModel(stages, newTr)
				}
				if err != nil {
					return nil, fmt.Errorf("pipeline: %w", err)
				}
				checked = true
			}
			byID[w] = p.newWorker(w, ref, stages[ref.Stage])
		}
	}
	for _, sw := range byID {
		if sw != nil {
			p.workers = append(p.workers, sw)
		}
	}
	if len(p.workers) == 0 {
		return nil, fmt.Errorf("pipeline: the transport hosts none of the plan's %d workers", p.assign.NumWorkers())
	}
	return p, nil
}

// firstModel checks the stages of the first factory model built: no two
// may share a layer or a parameter tensor, since stages of one model run
// on different workers. When the caller gave no transport it then makes
// one, sized for these stages, that hosts every worker.
func (p *Pipeline) firstModel(stages []*nn.Sequential, newTr TransportFactory) error {
	owner := map[any]int{} // layer or parameter tensor → its stage
	for s, st := range stages {
		for _, l := range st.Layers {
			keys := []any{l}
			for _, t := range l.Params() {
				keys = append(keys, t)
			}
			for i, k := range keys {
				if o, ok := owner[k]; ok && o != s {
					what := "layer"
					if i > 0 {
						what = "a parameter tensor of layer"
					}
					return fmt.Errorf("stages %d and %d share %s %q", o, s, what, l.Name())
				}
				owner[k] = s
			}
		}
	}
	if p.tr != nil {
		return nil
	}
	var err error
	buffer := InboxSize(p.opts.Plan, stages, p.opts.BucketBytes)
	if newTr == nil {
		p.tr = transport.NewChannels(p.assign.NumWorkers(), buffer)
	} else if p.tr, err = newTr(p.assign.NumWorkers(), buffer); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	p.ownTr = true
	return nil
}

// newWorker builds worker w, which runs stage (its stage slice of one
// factory model).
func (p *Pipeline) newWorker(w int, ref schedule.WorkerRef, stage *nn.Sequential) *stageWorker {
	opts, graph := p.opts, p.graph
	sw := &stageWorker{
		p:       p,
		id:      w,
		stage:   ref.Stage,
		replica: ref.Replica,
		model:   stage,
		weights: newWeightVersions(stage.Params()),
		grads:   stage.Grads(),
		opt:     opts.NewOptimizer(),
		mode:    opts.Mode,
		stash:   make(map[int]stashEntry),
		preds:   graph.Preds(ref.Stage),
		succs:   graph.Succs(ref.Stage),
		join:    graph.Join(ref.Stage),
		loss:    opts.Loss,

		fwdReady: make(map[int]transport.Message),
		bwdReady: make(map[int]transport.Message),
	}
	sw.gradArena = tensor.Pack(sw.grads)
	if l, ok := opts.SinkLoss[ref.Stage]; ok {
		sw.loss = l
	}
	if opts.Plan.Stages[ref.Stage].Replicas > 1 {
		sw.ring = collective.NewRingReducer(ref.Replica, p.assign.StageWorkers[ref.Stage], p.tr, opts.BucketBytes)
		sw.gradOffsets = gradOffsetsOf(sw.model)
	}
	if opts.instrumented() {
		sw.met = newWorkerMetrics(opts.Metrics, opts.OpLog, ref.Stage, ref.Replica)
	}
	return sw
}

// InboxSize is the transport inbox capacity each worker of a run of
// plan needs, over in-process channels or TCP alike. The inboxes must
// absorb every in-flight message even when a worker stalls in a gradient
// all_reduce — depth minibatches per input replica, two messages each,
// plus 8 for heartbeats — and a replicated stage's ring traffic: at most
// one in-flight chunk per bucket from the left neighbor's current round
// plus one from its next round, plus 8. A DAG plan scales all of it by
// its largest fan-in or fan-out. stages are the plan's stage slices of
// one model (partition.Plan.StageSlices); bucketBytes is the ring's
// (0: collective.DefaultBucketBytes).
func InboxSize(plan *partition.Plan, stages []*nn.Sequential, bucketBytes int) int {
	if bucketBytes <= 0 {
		bucketBytes = collective.DefaultBucketBytes
	}
	buckets := 0
	for i, st := range stages {
		if plan.Stages[i].Replicas <= 1 {
			continue
		}
		bytes := 0
		for _, g := range st.Grads() {
			bytes += g.Bytes()
		}
		buckets = max(buckets, (bytes+bucketBytes-1)/bucketBytes, 1)
	}
	n := 2*plan.Depth*plan.Stages[0].Replicas + 8
	if buckets > 0 {
		n += 2*buckets + 8
	}
	return n * plan.Graph.MaxDegree()
}

// gradOffsetsOf returns, per layer, the index of the layer's first
// gradient tensor in model.Grads() — the translation from "layer i's
// backward just finished" to "grads[offsets[i]:] are final" that the
// backward/sync overlap hook needs.
func gradOffsetsOf(model *nn.Sequential) []int {
	offs := make([]int, len(model.Layers))
	n := 0
	for i, l := range model.Layers {
		offs[i] = n
		n += len(l.Grads())
	}
	return offs
}

// Close releases the transport if the pipeline created it.
func (p *Pipeline) Close() error {
	if p.ownTr {
		return p.tr.Close()
	}
	return nil
}

// Cursor returns the global minibatch index the next Train call starts
// from; Restore rewinds it to the restored checkpoint's cursor.
func (p *Pipeline) Cursor() int { return p.cursor }

// Plan returns the plan the pipeline executes.
func (p *Pipeline) Plan() *partition.Plan { return p.opts.Plan }

// Train processes the next `minibatches` minibatches from ds through the
// pipeline and blocks until every local worker has applied its share of
// backward passes. Losses are reported by the process hosting a sink
// stage; a process hosting none reports zeros.
//
// With CheckpointDir and CheckpointEvery set, every local worker's stage
// file (and the plan-derived manifest) is written every K minibatches;
// with MaxRecoveries additionally set, a detected failure — a dead peer,
// a stalled pipeline (WatchdogTimeout) — drains in-flight state, restores
// from the last complete generation, and resumes. It is the elastic
// runtime's chunk loop run with no membership view: the plan never
// changes, and every failure restores onto it.
func (p *Pipeline) Train(ds data.Dataset, minibatches int) (*Report, error) {
	return (&Elastic{opts: p.opts, p: p, cursor: p.cursor}).Train(ds, minibatches)
}

// beginRun opens one Train call's measurement window on every local
// worker and pre-registers the failure counters.
func (p *Pipeline) beginRun() {
	p.registerFaultCounters()
	if p.opts.instrumented() {
		for _, sw := range p.workers {
			sw.met.beginRun()
		}
	}
}

// finishReport fills in what the local workers measured — peak stash
// bytes, per-stage statistics when instrumented — and the call's
// failure-path activity.
func (p *Pipeline) finishReport(rep *Report, recoveries, ckptWrites int) {
	for _, sw := range p.workers {
		rep.PeakStashBytes = append(rep.PeakStashBytes, sw.peakStashBytes)
		if sw.met != nil {
			rep.Stages = append(rep.Stages, sw.met.stats(sw))
		}
	}
	if p.opts.instrumented() {
		publishPoolCounters(p.opts.Metrics)
	}
	p.publishFaultStats(rep, recoveries, ckptWrites)
}

// runChunk drives all workers through minibatches [cs, ce) and blocks
// until the chunk drains — an epoch-consistent barrier at which every
// stage's weights reflect exactly the same minibatches, so a checkpoint
// taken here is globally consistent. Losses land in losses[mb-base].
func (p *Pipeline) runChunk(ds data.Dataset, cs, ce, base int, losses []float64) error {
	// Size kernel-level parallelism to the stage workers this chunk runs;
	// an explicit KernelParallelism (set by New) is respected.
	if p.opts.KernelParallelism == 0 {
		defer tensor.ScopeParallelism(len(p.workers))()
	}
	// Sink losses accumulate (a multi-sink graph reports one loss event per
	// head); zero this chunk's range so a recovery retry starts clean.
	for mb := cs; mb < ce; mb++ {
		if i := mb - base; i >= 0 && i < len(losses) {
			losses[i] = 0
		}
	}
	for _, sw := range p.workers {
		if sw.ring != nil {
			sw.ring.Reset()
		}
	}
	table, err := schedule.Table(p.assign, schedule.PipeDream1F1B, cs, ce)
	if err != nil {
		return err
	}
	ab := newRunAbort()
	// Every sink stage reports one loss event per minibatch, and the
	// channel is only drained after the workers join — size it for all of
	// them or sink workers block on send.
	results := make(chan lossEvent, (ce-cs)*len(p.graph.Sinks())+8)
	stopHB := make(chan struct{})
	if p.opts.HeartbeatEvery > 0 {
		for _, sw := range p.workers {
			go sw.heartbeatLoop(p.opts.HeartbeatEvery, stopHB, ab)
		}
	}
	var wg sync.WaitGroup
	for _, sw := range p.workers {
		wg.Add(1)
		go func(sw *stageWorker) {
			defer wg.Done()
			sw.run(ds, table[sw.id], cs, ce, results, ab)
		}(sw)
	}
	wg.Wait()
	close(stopHB)
	close(results)
	for ev := range results {
		if i := ev.mb - base; i >= 0 && i < len(losses) {
			losses[i] += ev.loss
		}
	}
	return ab.error()
}

// StageModel returns the live model slice executed by the given stage
// replica — useful for inspection and tests — or nil when that worker
// lives in another process. The returned Sequential shares parameter
// tensors with the worker; do not mutate while training. Parameter
// headers are stable for the life of the model; their Data is not stable
// across an optimizer step, do not cache it.
func (p *Pipeline) StageModel(stage, replica int) *nn.Sequential {
	for _, sw := range p.workers {
		if sw.stage == stage && sw.replica == replica {
			return sw.model
		}
	}
	return nil
}

// CollectModel assembles the current weights into a fresh single-worker
// model (taking replica 0 of each stage) for evaluation or export. Stages
// hosted by another process keep the factory's initial weights.
func (p *Pipeline) CollectModel() *nn.Sequential {
	model := p.opts.ModelFactory()
	stages, _ := p.opts.Plan.StageSlices(model) // New checked the plan against the factory's model
	for _, sw := range p.workers {
		if sw.replica == 0 {
			nn.RestoreParams(stages[sw.stage].Params(), sw.model.Params())
		}
	}
	return model
}
