// Package pipeline is PipeDream's execution runtime: it takes a partition
// plan for a real nn model, spins up one goroutine per worker (stage
// replica), and trains with the static 1F1B-RR schedule — every worker
// executes its op list from schedule.Table (warm-up forwards, then one
// backward, one forward), blocking for the message each op needs, so
// which weight version a forward reads never depends on timing;
// minibatches are routed round-robin across stage replicas, and weight
// stashing (optionally vertical sync) keeps gradients numerically correct
// despite pipelined staleness (§3.2-3.3 of the paper). Replicated stages
// synchronize gradients before applying updates — by default through a
// full-gradient exchange summed in replica order, or (Options.AllReduce =
// collective.Ring) through a chunked ring all-reduce that overlaps with
// backward compute. Losses and weights are therefore a pure function of
// (seed, plan, depth), whatever the transport or core count. A process
// runs the workers whose inboxes its transport hosts: all of them by
// default, its endpoint's local IDs in a multi-process deployment.
package pipeline

import (
	"fmt"
	"os"
	"runtime"
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

// RuntimeConfig groups the execution-shape options of a Pipeline: how
// deep the pipeline runs, whether activations are recomputed, and how
// much kernel-level parallelism each worker may use. Its fields are
// promoted into Options, so opts.Depth and friends keep working.
type RuntimeConfig struct {
	// Depth overrides NOAM as the per-input-replica in-flight bound: the
	// input stage's warm-up in the static schedule, and a cap on every
	// later stage's.
	Depth int
	// Recompute discards forward activations and recomputes them during
	// the backward pass (GPipe's memory-for-compute trade, §3.3) instead
	// of stashing layer contexts. Requires deterministic layers (dropout
	// would re-draw its mask during recomputation).
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
	// lowers the global degree to that value for its duration (it
	// never raises it) and restores the previous degree on return.
	KernelParallelism int
}

// SyncConfig groups the gradient-synchronization options for replicated
// stages. Its fields are promoted into Options.
type SyncConfig struct {
	// AllReduce selects the gradient collective for replicated stages:
	// collective.Central (the default: every replica sends its full
	// gradient to each sibling over the transport and all sum the
	// contributions in ascending replica order) or collective.Ring
	// (chunked ring all-reduce over the transport, overlapped with
	// backward compute). Both fix the summation order, so results are
	// bit-identical run to run and replica to replica.
	AllReduce collective.Method
	// BucketBytes caps the gradient bucket size of the ring collective;
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
// fields are promoted, so opts.Depth, opts.AllReduce, opts.CheckpointDir
// and friends read and assign exactly as before the split. Composite
// literals name the group: Options{RuntimeConfig: RuntimeConfig{Depth: 4}}.
type Options struct {
	// ModelFactory must return architecturally identical models with
	// identical initial weights on every call (use a fixed seed); each
	// worker owns a private instance and slices out its stage.
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
	// forwards that all ran under version 0 count it once — plus their
	// stashed input activations (tensor payloads only).
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
	depth  int
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
func New(opts Options) (*Pipeline, error) {
	if opts.ModelFactory == nil || opts.Plan == nil || opts.Loss == nil || opts.NewOptimizer == nil {
		return nil, fmt.Errorf("pipeline: ModelFactory, Plan, Loss, and NewOptimizer are required")
	}
	ref := opts.ModelFactory()
	last := opts.Plan.Stages[len(opts.Plan.Stages)-1].LastLayer
	if last != len(ref.Layers)-1 {
		return nil, fmt.Errorf("pipeline: plan covers %d layers, model has %d", last+1, len(ref.Layers))
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
	p.depth = opts.Depth
	if p.depth <= 0 {
		p.depth = opts.Plan.NOAM
	}
	if p.depth < 1 {
		return nil, fmt.Errorf("pipeline: depth %d (plan has NOAM %d; build it with partition.NewPlan)", p.depth, opts.Plan.NOAM)
	}
	if opts.KernelParallelism > 0 {
		tensor.SetParallelism(opts.KernelParallelism)
	}
	useRing := opts.AllReduce == collective.Ring
	p.tr = opts.Transport
	if p.tr == nil {
		p.tr = transport.NewChannels(p.assign.NumWorkers(), channelBuffer(ref, opts, p.depth)*graph.MaxDegree())
		p.ownTr = true
	}
	// Only the workers whose inboxes the transport hosts are built here.
	for w, ref := range p.assign.Workers {
		if !transport.Local(p.tr, w) {
			continue
		}
		model := opts.ModelFactory()
		spec := opts.Plan.Stages[ref.Stage]
		stage := model.Slice(spec.FirstLayer, spec.LastLayer+1)
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
		sw.gradFlat = tensor.FromSlice(sw.gradArena, len(sw.gradArena))
		if l, ok := opts.SinkLoss[ref.Stage]; ok {
			sw.loss = l
		}
		if useRing && spec.Replicas > 1 {
			sw.ring = collective.NewRingReducer(ref.Replica, p.assign.StageWorkers[ref.Stage], p.tr, opts.BucketBytes)
			sw.gradOffsets = gradOffsetsOf(sw.model)
		}
		if opts.instrumented() {
			sw.met = newWorkerMetrics(opts.Metrics, opts.OpLog, ref.Stage, ref.Replica)
		}
		p.workers = append(p.workers, sw)
	}
	if len(p.workers) == 0 {
		return nil, fmt.Errorf("pipeline: the transport hosts none of the plan's %d workers", p.assign.NumWorkers())
	}
	return p, nil
}

// channelBuffer sizes the in-process transport's inboxes: they must
// absorb every in-flight message even when a worker stalls in a gradient
// all_reduce — depth minibatches per input replica, two messages each,
// plus slack. Ring mode adds room for the lock-step chunk traffic: at
// most one in-flight chunk per bucket from the left neighbor's current
// round plus one from its next round. The central exchange adds one
// full-gradient message per sibling for the current round and, from
// siblings already a round ahead, one for the next.
func channelBuffer(ref *nn.Sequential, opts Options, depth int) int {
	buffer := 2*depth*opts.Plan.Stages[0].Replicas + 8
	if opts.AllReduce == collective.Ring {
		return buffer + 2*maxRingBuckets(ref, opts) + 8
	}
	siblings := 0
	for _, spec := range opts.Plan.Stages {
		siblings = max(siblings, spec.Replicas-1)
	}
	return buffer + 2*siblings
}

// maxRingBuckets bounds how many gradient buckets the ring collective of
// any replicated stage will use — the transport buffer slack needed to
// absorb its chunk traffic.
func maxRingBuckets(model *nn.Sequential, opts Options) int {
	bb := opts.BucketBytes
	if bb <= 0 {
		bb = collective.DefaultBucketBytes
	}
	max := 0
	for _, spec := range opts.Plan.Stages {
		if spec.Replicas <= 1 {
			continue
		}
		bytes := 0
		for _, g := range model.Slice(spec.FirstLayer, spec.LastLayer+1).Grads() {
			bytes += g.Bytes()
		}
		n := (bytes + bb - 1) / bb
		if n < 1 {
			n = 1
		}
		if n > max {
			max = n
		}
	}
	return max
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

// Depth returns the effective pipeline depth (NOAM unless overridden).
func (p *Pipeline) Depth() int { return p.depth }

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
// from the last complete generation, and resumes.
func (p *Pipeline) Train(ds data.Dataset, minibatches int) (*Report, error) {
	if minibatches <= 0 {
		return nil, fmt.Errorf("pipeline: minibatches = %d", minibatches)
	}
	// Wire kernel-level parallelism to the stage-level concurrency this
	// call is about to create: every stage worker dispatches kernel
	// chunks to tensor's single bounded pool, so the product of the two
	// levels can never oversubscribe NumCPU — but sizing the kernel
	// fan-out to the cores left per worker also keeps compute-balanced
	// stages from contending on the pool's dispatch queue. Explicit
	// overrides (KernelParallelism or the environment) are respected.
	if p.opts.KernelParallelism == 0 && os.Getenv(tensor.ParallelismEnv) == "" {
		per := runtime.NumCPU() / len(p.workers)
		if per < 1 {
			per = 1
		}
		if cur := tensor.Parallelism(); per < cur {
			tensor.SetParallelism(per)
			defer tensor.SetParallelism(cur)
		}
	}
	start := p.cursor
	end := start + minibatches
	periodic := p.opts.CheckpointDir != "" && p.opts.CheckpointEvery > 0
	every := minibatches
	if periodic {
		every = p.opts.CheckpointEvery
	}
	t0 := time.Now()
	if p.opts.OpLog != nil {
		p.opts.OpLog.SetOrigin(t0)
	}
	p.beginRun()
	losses := make([]float64, minibatches)
	recoveries, ckptWrites := 0, 0
	// consecFailures counts failed chunks since the last clean one.
	// MaxRecoveries bounds this consecutive count, not the lifetime
	// total: a long run surviving sporadic, spaced-out faults keeps
	// recovering, while a fault loop that never completes a chunk still
	// surfaces after MaxRecoveries attempts.
	consecFailures := 0
	if p.autoRecover() {
		// Seed an initial generation so the first failure has something to
		// restore (a training run that fails before its first periodic
		// checkpoint would otherwise be unrecoverable).
		if _, err := LatestCheckpoint(p.opts.CheckpointDir); err != nil {
			if err := p.checkpointAt(p.opts.CheckpointDir, start); err != nil {
				return nil, err
			}
			ckptWrites++
		}
	}
	cs := start
	for cs < end {
		ce := cs + every
		if ce > end {
			ce = end
		}
		if err := p.runChunk(ds, cs, ce, start, losses); err != nil {
			consecFailures++
			if !p.autoRecover() || consecFailures > p.opts.MaxRecoveries {
				return nil, err
			}
			recoveries++
			restored, rerr := p.recoverFromCheckpoint()
			if rerr != nil {
				return nil, fmt.Errorf("pipeline: recovery after %v: %w", err, rerr)
			}
			// A generation older than this call's start (a peer process died
			// before writing its shard of the newest one) replays the gap;
			// runChunk drops those minibatches' losses.
			cs = restored
			continue
		}
		consecFailures = 0
		cs = ce
		p.cursor = ce
		if periodic {
			if err := p.checkpointAt(p.opts.CheckpointDir, ce); err != nil {
				return nil, err
			}
			ckptWrites++
		}
	}
	p.cursor = end
	rep := &Report{
		Losses:   losses,
		WallTime: time.Since(t0),
		Samples:  minibatches * ds.Batch(start).X.Dim(0),
	}
	p.finishReport(rep, recoveries, ckptWrites)
	return rep, nil
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
	table := schedule.Table(p.assign, schedule.PipeDream1F1B, p.depth, cs, ce)
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
	for _, sw := range p.workers {
		if sw.replica == 0 {
			spec := p.opts.Plan.Stages[sw.stage]
			nn.RestoreParams(model.Slice(spec.FirstLayer, spec.LastLayer+1).Params(), sw.model.Params())
		}
	}
	return model
}

// stashEntry is the per-minibatch state a worker keeps between a forward
// and its backward.
type stashEntry struct {
	weights *weightVersion // version the forward ran under, held until the backward ends (nil in NoStashing)
	ctx     *nn.SeqContext // nil when recomputation is enabled
	input   *tensor.Tensor // stage input: recomputed from, and recycled after backward
	// output is the stage output when this worker is the one to release it
	// (see ownedOutput) and the backward pass still reads it (a stage ending
	// in Tanh or Sigmoid, whose context is its output), kept until the
	// backward ends; nil when the forward already released it.
	output     *tensor.Tensor
	version    int // the minibatch's vertical-sync tag
	fwdUpdates int // local optimizer updates at forward time (staleness baseline)
	// joinWidths records, for a JoinConcat stage, each predecessor's
	// feature width (in sw.preds order) so the backward pass can split
	// the gradient back per edge. Nil elsewhere.
	joinWidths []int
}

type stageWorker struct {
	p       *Pipeline
	id      int
	stage   int
	replica int
	model   *nn.Sequential
	opt     nn.Optimizer
	mode    StalenessMode

	// The stage's parameters live in the arrays of weights' versions and its
	// gradients (grads, in Grads() order) in gradArena, which the ring's
	// buckets and the full-gradient exchange reduce in place. accum, made
	// at the first use and kept for the run, sums the gradients of one
	// GradAccumulation cycle; accumViews are its per-gradient views and
	// accumCount the minibatches summed so far.
	weights    *weightVersions
	grads      []*tensor.Tensor
	gradArena  []float32
	gradFlat   *tensor.Tensor // gradArena as the one tensor the full-gradient exchange sends
	accum      []float32
	accumViews []*tensor.Tensor
	accumCount int

	// Dataflow position in the plan's stage graph: the stages feeding
	// this one, the stages it feeds, how fan-in activations combine,
	// and the loss this stage computes when it is a sink.
	preds, succs []int
	join         partition.JoinOp
	loss         LossFunc

	// ring is the chunked overlapped collective (Options.AllReduce =
	// collective.Ring); nil means the full-gradient exchange. gradOffsets
	// maps "layer i finished backward" to the first final gradient
	// tensor; curAb and ringErr let the message-routing path (enqueue)
	// surface collective failures into the running chunk's abort.
	ring        *collective.RingReducer
	gradOffsets []int
	curAb       *runAbort
	ringErr     error

	updates int
	stash   map[int]stashEntry

	stashBytes     int64
	peakStashBytes int64

	// met is the worker's instrumentation state; nil when observability
	// is off, and every hook is guarded so the disabled hot path pays
	// only the nil checks. syncStart/syncDur carry the most recent
	// gradient-sync wait from the sync block to the backward hook;
	// syncFirst is the portion of it spent before the first bucket
	// completed (equal to syncDur outside ring mode).
	met       *workerMetrics
	syncStart time.Time
	syncDur   time.Duration
	syncFirst time.Duration

	// fwdReady/bwdReady hold, by minibatch, the inputs that have fully
	// arrived and wait for their op's turn in the schedule: the stage's
	// input activation, and the gradient of its output (a sink's own loss
	// gradient lands in bwdReady when its forward ends). Entries for a
	// later Train window stay until that window runs.
	fwdReady, bwdReady map[int]transport.Message
	// fwdPend/gradPend hold per-edge arrivals at fan-in/fan-out stages
	// (minibatch → source stage → payload). A forward becomes ready
	// once every predecessor's activation landed; a backward once every
	// successor's gradient did. Single-edge stages bypass both.
	fwdPend  map[int]map[int]transport.Message
	gradPend map[int]map[int]*tensor.Tensor
	// gradExch buffers sibling replicas' gradient contributions by
	// all-reduce round, keyed by sender replica so duplicate deliveries
	// (chaos, retransmits) collapse instead of double-counting.
	gradExch map[int]map[int]*tensor.Tensor
	// seenFwd marks minibatches whose activation was already accepted, so
	// duplicate deliveries are dropped instead of running twice.
	seenFwd map[int]bool
	// dupDrops counts duplicate messages discarded by dedup.
	dupDrops int
	// lastProgress is the watchdog baseline: the time of the last
	// completed op or accepted message. Heartbeats do not advance it.
	lastProgress time.Time

	results    chan<- lossEvent
	trainStart int
	trainEnd   int
}

func (sw *stageWorker) replicas() int { return len(sw.p.assign.StageWorkers[sw.stage]) }

// isSink reports whether this stage has no downstream stage in the plan
// graph — it computes a loss instead of forwarding activations.
func (sw *stageWorker) isSink() bool { return len(sw.succs) == 0 }

// enqueue routes an incoming message to the right arrived-set, dropping
// duplicates (a transport retransmit after reconnect, or an injected
// chaos duplicate, must not run a minibatch twice).
func (sw *stageWorker) enqueue(m transport.Message) {
	switch m.Kind {
	case transport.Activation:
		if sw.seenFwd[m.Minibatch] {
			sw.dupDrops++
			return
		}
		if len(sw.preds) > 1 {
			// Fan-in stage: hold the arrival until every in-edge delivered,
			// then queue a tensorless ready marker; forward() joins the
			// held activations. Dedup is per source edge.
			pend := sw.fwdPend[m.Minibatch]
			if _, dup := pend[m.Src]; dup {
				sw.dupDrops++
				return
			}
			if pend == nil {
				pend = make(map[int]transport.Message, len(sw.preds))
				if sw.fwdPend == nil {
					sw.fwdPend = make(map[int]map[int]transport.Message)
				}
				sw.fwdPend[m.Minibatch] = pend
			}
			pend[m.Src] = m
			if len(pend) < len(sw.preds) {
				return
			}
			first := pend[sw.preds[0]]
			m = transport.Message{Kind: transport.Activation, Minibatch: m.Minibatch,
				Version: first.Version, Labels: first.Labels}
		}
		if sw.seenFwd == nil {
			sw.seenFwd = make(map[int]bool)
		}
		sw.seenFwd[m.Minibatch] = true
		sw.fwdReady[m.Minibatch] = m
	case transport.Gradient:
		// A gradient is valid only while its forward's stash entry exists;
		// a second delivery after the backward ran has no stash and drops.
		if _, ok := sw.stash[m.Minibatch]; !ok {
			sw.dupDrops++
			return
		}
		if len(sw.succs) > 1 {
			// Fan-out stage: every successor returns a gradient for the
			// broadcast activation; hold them until all arrived, then
			// queue a tensorless ready marker that backward() sums.
			pend := sw.gradPend[m.Minibatch]
			if _, dup := pend[m.Src]; dup {
				sw.dupDrops++
				return
			}
			if pend == nil {
				pend = make(map[int]*tensor.Tensor, len(sw.succs))
				if sw.gradPend == nil {
					sw.gradPend = make(map[int]map[int]*tensor.Tensor)
				}
				sw.gradPend[m.Minibatch] = pend
			}
			pend[m.Src] = m.Tensor
			if len(pend) < len(sw.succs) {
				return
			}
			m = transport.Message{Kind: transport.Gradient, Minibatch: m.Minibatch, Version: m.Version}
		}
		if _, dup := sw.bwdReady[m.Minibatch]; dup {
			sw.dupDrops++
			return
		}
		sw.bwdReady[m.Minibatch] = m
	case transport.GradExchange:
		if sw.gradExch == nil {
			sw.gradExch = make(map[int]map[int]*tensor.Tensor)
		}
		round := sw.gradExch[m.Minibatch]
		if round == nil {
			round = make(map[int]*tensor.Tensor)
			sw.gradExch[m.Minibatch] = round
		}
		if _, dup := round[m.Version]; dup {
			sw.dupDrops++
			return
		}
		round[m.Version] = m.Tensor
	case transport.GradChunk:
		if sw.ring == nil {
			sw.dupDrops++
			return
		}
		if err := sw.ring.Deliver(m); err != nil && sw.ringErr == nil {
			sw.ringErr = fmt.Errorf("pipeline: worker %d ring all-reduce: %w", sw.id, err)
			if sw.curAb != nil {
				sw.curAb.fail(sw.ringErr)
			}
		}
	case transport.Heartbeat:
		// Liveness only; never queued.
	}
}

// drainInbox moves every queued message into the worker's queues without
// blocking.
func (sw *stageWorker) drainInbox() {
	inbox := sw.p.tr.Inbox(sw.id)
	for {
		select {
		case m, ok := <-inbox:
			if !ok {
				return
			}
			sw.enqueue(m)
		default:
			return
		}
	}
}

// run executes the worker's static schedule for one chunk of a Train
// call: the ops of its schedule.Table list, in order. Each op blocks —
// under the watchdog and the shared abort, still routing ring, exchange
// and heartbeat traffic — until the activation or gradient it needs has
// arrived; messages for later ops wait in the arrived-sets. run returns a
// non-nil error (after flagging the shared abort) when the transport
// fails, the watchdog trips, or another worker aborted the chunk.
func (sw *stageWorker) run(ds data.Dataset, ops []schedule.TableOp, start, end int, results chan<- lossEvent, ab *runAbort) error {
	sw.results = results
	sw.trainStart = start
	sw.trainEnd = end
	sw.curAb = ab
	sw.ringErr = nil
	defer func() { sw.curAb = nil }()
	for mb := range sw.seenFwd {
		if mb < start {
			delete(sw.seenFwd, mb)
		}
	}
	sw.lastProgress = time.Now()
	if sw.met != nil {
		sw.met.beginSpan()
		defer sw.met.endSpan()
	}

	for _, op := range ops {
		if ab.failed() {
			return ab.error()
		}
		sw.drainInbox()
		if sw.met != nil {
			sw.met.sampleQueues(len(sw.fwdReady) + len(sw.bwdReady))
		}
		var m transport.Message
		if op.Kind == schedule.Forward && sw.stage == 0 {
			// The input stage reads its own minibatch. The version tag
			// counts the minibatches reflected in this replica's weights.
			batch := ds.Batch(op.Minibatch)
			m = transport.Message{
				Kind: transport.Activation, Minibatch: op.Minibatch,
				Version: sw.reflected(), Tensor: batch.X, Labels: batch.Labels,
			}
		} else {
			ready := sw.fwdReady
			if op.Kind == schedule.Backward {
				ready = sw.bwdReady
			}
			ok := false
			for m, ok = ready[op.Minibatch]; !ok; m, ok = ready[op.Minibatch] {
				// Block for the next message (the worker's directly observed
				// pipeline bubble), under the watchdog.
				if err := sw.waitMsg(ab, true); err != nil {
					return err
				}
			}
			delete(ready, op.Minibatch)
		}
		var err error
		if op.Kind == schedule.Backward {
			err = sw.backward(m, ab)
		} else {
			err = sw.forward(m, ab)
		}
		if err != nil {
			return err
		}
		sw.lastProgress = time.Now()
	}
	return nil
}

// forward runs the stage's forward pass for one minibatch. A sink stage
// computes the loss and leaves its gradient in bwdReady for the matching
// backward op. A transport failure on the downstream send aborts the run.
func (sw *stageWorker) forward(m transport.Message, ab *runAbort) error {
	var op0 time.Time
	if sw.met != nil {
		op0 = time.Now()
		defer func() { sw.met.forwardDone(sw, m.Minibatch, op0) }()
	}
	// Fan-in stages queue a tensorless ready marker; materialize the
	// stage input by joining the held per-edge activations.
	var joinWidths []int
	if m.Tensor == nil && len(sw.preds) > 1 {
		var err error
		m.Tensor, joinWidths, err = sw.joinPending(m.Minibatch)
		if err != nil {
			ab.fail(err)
			return err
		}
	}
	// The version this forward runs under is held, not copied, until the
	// minibatch's backward ends.
	var weights *weightVersion
	switch sw.mode {
	case WeightStashing:
		weights = sw.weights.latest()
	case VerticalSync:
		// Version tags count globally reflected minibatches, so stages
		// with different replication factors can translate them: this
		// stage's version after u local updates reflects u·replicas
		// minibatches. Use the newest version not exceeding the tag.
		if weights = sw.weights.lookup(m.Version); weights == nil {
			err := fmt.Errorf("pipeline: worker %d has no weight version ≤ tag %d (surviving versions %v)",
				sw.id, m.Version, sw.weights.keys())
			ab.fail(err)
			return err
		}
	}
	if weights != nil {
		sw.trackStash(sw.weights.hold(weights))
		sw.weights.bind(weights)
	}
	y, ctx := sw.model.Forward(m.Tensor, true)
	sw.weights.bind(sw.weights.latest())
	entry := stashEntry{weights: weights, ctx: ctx, input: m.Tensor, output: sw.ownedOutput(y, m.Tensor),
		version: m.Version, fwdUpdates: sw.updates, joinWidths: joinWidths}
	var err error
	if sw.isSink() {
		loss, grad := sw.loss(y, m.Labels)
		if tensor.SharesStorage(grad, y) {
			// A loss that wrote its gradient over the prediction: one
			// array, released as the gradient.
			entry.output = nil
		}
		sw.results <- lossEvent{mb: m.Minibatch, loss: loss}
		sw.bwdReady[m.Minibatch] = transport.Message{
			Kind: transport.Gradient, Minibatch: m.Minibatch,
			Version: m.Version, Tensor: grad,
		}
	} else {
		err = sw.sendActivation(m, y, ab)
	}
	if sw.p.opts.Recompute {
		// Keep only the stage input; the backward pass re-runs the
		// forward to rebuild layer contexts (trading compute for the
		// activation-stash memory, §3.3). What this forward built has
		// served its purpose.
		sw.model.Discard(ctx)
		entry.ctx = nil
	}
	if entry.ctx == nil || !entry.ctx.ReadsOutput() {
		// The output has been used (sent, or scored) and no layer
		// context needs it for the backward pass.
		tensor.Put(entry.output)
		entry.output = nil
	}
	sw.stash[m.Minibatch] = entry
	sw.trackStash(int64(m.Tensor.Bytes()))
	return err
}

// sendActivation broadcasts the output activation y of minibatch m along
// every out-edge (one send for a linear plan). Receivers treat activations
// as read-only, so the same tensor backs every in-process send. A
// transport failure aborts the run.
func (sw *stageWorker) sendActivation(m transport.Message, y *tensor.Tensor, ab *runAbort) error {
	for _, next := range sw.succs {
		target := sw.p.assign.StageWorkers[next][schedule.ReplicaFor(m.Minibatch, len(sw.p.assign.StageWorkers[next]))]
		if err := sw.p.tr.Send(target, transport.Message{
			Kind: transport.Activation, Minibatch: m.Minibatch,
			Version: m.Version, Src: sw.stage, Tensor: y, Labels: m.Labels,
		}); err != nil {
			err = fmt.Errorf("pipeline: worker %d forward mb %d: %w", sw.id, m.Minibatch, err)
			ab.fail(err)
			return err
		}
	}
	return nil
}

// ownedOutput returns y, a stage output computed from input x, if this
// worker is the one to release it, and nil otherwise. It is when y's
// pointer never leaves the worker: a sink's output feeds only its loss, and
// a serializing transport copies the bytes out during Send. Over an
// in-process transport the pointer is the message, and the tensor is shared
// from then on (transport.Transport). An output that is a view of the
// stage's input goes the way of that input.
func (sw *stageWorker) ownedOutput(y, x *tensor.Tensor) *tensor.Tensor {
	if (sw.isSink() || transport.ReceiverOwns(sw.p.tr)) && !tensor.SharesStorage(y, x) {
		return y
	}
	return nil
}

// backward runs the stage's backward pass for one minibatch, synchronizes
// gradients across replicas, and applies the update to the latest weights
// (PipeDream's semantics: gradients are computed with stashed weights but
// applied to the most recent version). The schedule runs it exactly once
// per minibatch, after that minibatch's forward, so the stash entry is
// there.
func (sw *stageWorker) backward(m transport.Message, ab *runAbort) error {
	entry := sw.stash[m.Minibatch]
	if sw.met != nil {
		op0 := time.Now()
		staleness := sw.updates - entry.fwdUpdates
		defer func() {
			sw.met.backwardDone(sw, m.Minibatch, op0, sw.syncStart, sw.syncDur, sw.syncFirst, staleness)
			sw.syncDur = 0
			sw.syncFirst = 0
		}()
	}
	// Fan-out stages queue a tensorless ready marker once every
	// successor's gradient arrived; the broadcast point sums them.
	if m.Tensor == nil && len(sw.succs) > 1 {
		m.Tensor = sw.sumPendingGrads(m.Minibatch)
	}
	delete(sw.stash, m.Minibatch)
	clear(sw.gradArena)

	// Ring mode opens the all-reduce round before backward runs so that
	// tail buckets start reducing from the overlap hook while earlier
	// layers are still backpropagating.
	useRing := false
	if sw.ring != nil {
		participants, roundKey := sw.roundOf(m.Minibatch)
		if participants > 1 {
			useRing = true
			if err := sw.ring.BeginRound(roundKey, participants, sw.grads); err != nil {
				err = fmt.Errorf("pipeline: worker %d ring round for mb %d: %w", sw.id, m.Minibatch, err)
				ab.fail(err)
				return err
			}
		}
	}

	var gradIn *tensor.Tensor
	backward := func() *tensor.Tensor {
		ctx := entry.ctx
		if ctx == nil {
			// Recomputation: re-run the forward pass (under the same
			// stashed weights) to rebuild the layer contexts. Its output
			// goes nowhere, so it is this worker's on any transport.
			var y *tensor.Tensor
			y, ctx = sw.model.Forward(entry.input, true)
			if !tensor.SharesStorage(y, entry.input) {
				entry.output = y
			}
		}
		if useRing {
			return sw.model.BackwardWithHook(ctx, m.Tensor, sw.pumpRing)
		}
		return sw.model.Backward(ctx, m.Tensor)
	}
	if entry.weights != nil {
		// Point the layers at the version the forward ran under, and back:
		// its last reader may be this backward, which then frees its array.
		sw.weights.bind(entry.weights)
		gradIn = backward()
		sw.weights.bind(sw.weights.latest())
		sw.trackStash(-sw.weights.release(entry.weights))
	} else {
		gradIn = backward()
	}
	sw.trackStash(-int64(entry.input.Bytes()))
	if sw.ringErr != nil {
		err := sw.ringErr
		sw.ringErr = nil
		return err
	}

	// In ring mode the upstream gradient leaves before the sync drain:
	// the previous stage starts its backward while our buckets finish
	// reducing (overlap in both directions).
	sentUp := false
	sendUp := func() error {
		if sentUp {
			return nil
		}
		sentUp = true
		// gradIn is released here, by the rule of its path: if its pointer
		// was handed to the transport, as a tensor that crossed it
		// (recycle); if only copies of it were (a concat join's pieces, which
		// go that way themselves) or nothing was (an input stage), as this
		// worker's own. A stage of views only returns a view of the
		// downstream gradient, which is released as that, below.
		sentItself := false
		if len(sw.preds) > 0 {
			// One gradient per in-edge: the join's backward routes gradIn to
			// each predecessor (unchanged for sum, split by feature width
			// for concat, pass-through for a single edge).
			upGrads, err := splitJoinGrad(sw.join, gradIn, sw.preds, entry.joinWidths)
			if err != nil {
				err = fmt.Errorf("pipeline: worker %d backward mb %d: %w", sw.id, m.Minibatch, err)
				ab.fail(err)
				return err
			}
			for i, prev := range sw.preds {
				target := sw.p.assign.StageWorkers[prev][schedule.ReplicaFor(m.Minibatch, len(sw.p.assign.StageWorkers[prev]))]
				if err := sw.p.tr.Send(target, transport.Message{
					Kind: transport.Gradient, Minibatch: m.Minibatch,
					Version: entry.version, Src: sw.stage, Tensor: upGrads[i],
				}); err != nil {
					err = fmt.Errorf("pipeline: worker %d backward mb %d: %w", sw.id, m.Minibatch, err)
					ab.fail(err)
					return err
				}
			}
			for _, g := range upGrads {
				if g == gradIn {
					sentItself = true
				} else {
					sw.recycle(g)
				}
			}
		}
		switch {
		case tensor.SharesStorage(gradIn, m.Tensor):
		case sentItself:
			sw.recycle(gradIn)
		default:
			tensor.Put(gradIn)
		}
		return nil
	}
	if useRing {
		if err := sendUp(); err != nil {
			return err
		}
	}

	// Replicated stages average gradients before updating, so replicas
	// stay consistent (the runtime analogue of DDP within a stage). Ring
	// mode drains the overlapped collective; otherwise the replicas
	// exchange full gradients over the transport.
	if sw.replicas() > 1 {
		var s0 time.Time
		if sw.met != nil {
			s0 = time.Now()
		}
		switch {
		case useRing:
			if err := sw.drainRing(ab); err != nil {
				return err
			}
		case sw.ring != nil:
			// Ring mode, but the final partial round has one participant:
			// nothing to synchronize.
		default:
			if err := sw.exchangeGradients(m.Minibatch, ab); err != nil {
				return err
			}
		}
		if sw.met != nil {
			sw.syncStart = s0
			sw.syncDur = time.Since(s0)
			if !useRing {
				sw.syncFirst = sw.syncDur
			}
		}
	}
	sw.applyUpdate()

	if err := sendUp(); err != nil {
		return err
	}
	// Nothing reads the minibatch's input activation (a layer context
	// until now), its output (possibly the last layer's context) or the
	// output's gradient again, and the upstream gradient — it may be a
	// view of the latter — has left. What arrived over a single edge is
	// released as a tensor that crossed the transport; a join's result, a
	// fan-out's gradient sum and a sink's loss gradient were made here and
	// never left; the input stage's batch is the dataset's.
	switch len(sw.preds) {
	case 0:
	case 1:
		sw.recycle(entry.input)
	default:
		tensor.Put(entry.input)
	}
	if len(sw.succs) == 1 {
		sw.recycle(m.Tensor)
	} else {
		tensor.Put(m.Tensor)
	}
	tensor.Put(entry.output)
	return nil
}

// recycle returns a tensor this worker took off the transport to the
// tensor pool, once the op that consumed it is finished — the receiver's
// half of the ownership rule in transport.Transport. On a transport that
// delivers the sender's pointer it does nothing.
func (sw *stageWorker) recycle(t *tensor.Tensor) {
	if transport.ReceiverOwns(sw.p.tr) {
		tensor.Put(t)
	}
}

// roundOf returns the participant count and globally unique key of the
// all-reduce round minibatch mb belongs to: with round-robin routing,
// blocks of `replicas` consecutive minibatches from the Train window's
// start land on distinct replicas, and the block's first minibatch index
// names the round.
func (sw *stageWorker) roundOf(mb int) (participants, key int) {
	replicas := sw.replicas()
	k := (mb - sw.trainStart) / replicas
	participants = sw.trainEnd - sw.trainStart - k*replicas
	if participants > replicas {
		participants = replicas
	}
	key = sw.trainStart + k*replicas
	return participants, key
}

// pumpRing is the backward/sync overlap hook: after layer `layer`
// finishes its backward, drain queued messages (chunk deliveries advance
// the ring) and mark the layer's gradients final so its bucket can start
// reducing while earlier layers still backpropagate.
func (sw *stageWorker) pumpRing(layer int) {
	sw.drainInbox()
	if sw.ringErr != nil {
		return
	}
	if err := sw.ring.Ready(sw.gradOffsets[layer]); err != nil {
		sw.ringErr = fmt.Errorf("pipeline: worker %d ring all-reduce: %w", sw.id, err)
		if sw.curAb != nil {
			sw.curAb.fail(sw.ringErr)
		}
	}
}

// drainRing blocks until the in-flight ring round completes, routing
// unrelated messages into the normal queues so the pipeline keeps
// flowing. When instrumented it splits the wait into
// before-first-bucket-completion vs tail and records per-bucket waits.
func (sw *stageWorker) drainRing(ab *runAbort) error {
	r := sw.ring
	if sw.met == nil {
		for !r.Idle() {
			if err := sw.waitMsg(ab, false); err != nil {
				return err
			}
			if sw.ringErr != nil {
				err := sw.ringErr
				sw.ringErr = nil
				return err
			}
		}
		return nil
	}
	t0 := time.Now()
	total := r.NumBuckets()
	prevDone := r.CompletedBuckets()
	firstSeen := prevDone > 0 || r.Idle()
	var firstDur time.Duration
	last := t0
	for !r.Idle() {
		if err := sw.waitMsg(ab, false); err != nil {
			return err
		}
		if sw.ringErr != nil {
			err := sw.ringErr
			sw.ringErr = nil
			return err
		}
		done := total
		if !r.Idle() {
			done = r.CompletedBuckets()
		}
		if done > prevDone {
			now := time.Now()
			sw.met.observeBucketWait(now.Sub(last), done-prevDone)
			if !firstSeen {
				firstSeen = true
				firstDur = now.Sub(t0)
			}
			last = now
			prevDone = done
		}
	}
	sw.syncFirst = firstDur
	return nil
}

// applyUpdate steps the optimizer — it reads the latest weight version
// and writes the next — honouring gradient accumulation: with
// GradAccumulation = N, gradients of N consecutive minibatches are
// averaged into one update. The version counter still advances every
// minibatch so vertical-sync tags stay aligned across stages. Versions no
// forward can ask for any more leave the table.
func (sw *stageWorker) applyUpdate() {
	sw.updates++
	if n := sw.p.opts.GradAccumulation; n <= 1 {
		sw.weights.step(sw.opt, sw.grads, sw.reflected())
	} else {
		if sw.accum == nil {
			sw.accum = make([]float32, len(sw.gradArena))
			sw.accumViews = tensor.Views(sw.grads, sw.accum)
		}
		if sw.accumCount == 0 {
			copy(sw.accum, sw.gradArena)
		} else {
			tensor.AddInto(sw.accum, sw.accum, sw.gradArena)
		}
		sw.accumCount++
		if sw.accumCount >= n {
			inv := float32(1) / float32(sw.accumCount)
			for i := range sw.accum {
				sw.accum[i] *= inv
			}
			sw.weights.step(sw.opt, sw.accumViews, sw.reflected())
			sw.accumCount = 0
		}
	}
	oldest := sw.reflected()
	if sw.mode == VerticalSync {
		oldest = sw.versionHorizon()
	}
	sw.weights.prune(oldest)
}

// reflected returns the number of globally admitted minibatches whose
// updates this worker's weights incorporate: one local update per
// round-robin round covers `replicas` minibatches.
func (sw *stageWorker) reflected() int { return sw.updates * sw.replicas() }

// exchangeGradients is the central all_reduce for replicated stages,
// between local and remote siblings alike: every replica sends its whole
// gradient arena for the round to each sibling and waits (while
// continuing to route pipeline traffic) until all participants'
// contributions arrive, then averages in place. A dead sibling surfaces
// as a send error or a watchdog trip, not a hang.
func (sw *stageWorker) exchangeGradients(mb int, ab *runAbort) error {
	replicas := sw.replicas()
	participants, first := sw.roundOf(mb) // fewer than replicas in a final partial round
	if participants <= 1 {
		return nil
	}
	round := (mb - sw.trainStart) / replicas
	// A serializing transport has the arena's bytes on the wire before Send
	// returns; an in-process one hands the pointer over, so there the
	// siblings get a pooled copy, which is theirs to read from then on.
	flat := sw.gradFlat
	if !transport.ReceiverOwns(sw.p.tr) {
		flat = tensor.GetRaw(len(sw.gradArena))
		copy(flat.Data, sw.gradArena)
	}
	for _, peer := range sw.p.assign.StageWorkers[sw.stage] {
		if peer == sw.id {
			continue
		}
		// Skip siblings whose minibatch of this round lies past the window.
		offset := (sw.p.assign.Workers[peer].Replica - first%replicas + replicas) % replicas
		if first+offset >= sw.trainEnd {
			continue
		}
		if err := sw.p.tr.Send(peer, transport.Message{
			Kind: transport.GradExchange, Minibatch: round,
			Version: sw.replica, Tensor: flat,
		}); err != nil {
			err = fmt.Errorf("pipeline: worker %d gradient exchange round %d: %w", sw.id, round, err)
			ab.fail(err)
			return err
		}
	}
	// Wait for the other participants, routing unrelated messages into
	// the normal queues so the pipeline keeps flowing.
	for sw.gradExch == nil || len(sw.gradExch[round]) < participants-1 {
		if err := sw.waitMsg(ab, false); err != nil {
			return err
		}
	}
	// Sum in ascending replica index, this replica's own contribution in
	// its place: float addition is not associative, so a fixed order is
	// what makes every replica compute the same bits, run after run. The
	// own contribution is the arena itself and the sum ends up there; two
	// or more terms before it (a third replica at the earliest) are summed
	// in pooled scratch. The sum starts from its first term, not from
	// zeros: no accumulated gradient is −0, so 0 + x is x, bit for bit.
	contribs := sw.gradExch[round]
	delete(sw.gradExch, round)
	var acc []float32
	var scratch *tensor.Tensor
	for r := 0; r < replicas; r++ {
		c := sw.gradArena
		if r != sw.replica {
			t := contribs[r]
			if t == nil {
				continue
			}
			if t.Size() != len(sw.gradArena) {
				err := fmt.Errorf("pipeline: worker %d gradient exchange round %d: replica %d sent %d values, the stage has %d",
					sw.id, round, r, t.Size(), len(sw.gradArena))
				ab.fail(err)
				return err
			}
			c = t.Data
		}
		if acc == nil {
			acc = c
			continue
		}
		dst := sw.gradArena
		if r < sw.replica {
			if scratch == nil {
				scratch = tensor.GetRaw(len(dst))
			}
			dst = scratch.Data
		}
		tensor.AddInto(dst, acc, c)
		acc = dst
	}
	tensor.Put(scratch)
	for _, c := range contribs {
		sw.recycle(c)
	}
	inv := float32(1) / float32(participants)
	for i := range sw.gradArena {
		sw.gradArena[i] *= inv
	}
	return nil
}

// versionHorizon returns, under vertical sync, the oldest reflected-
// minibatch count a forward can still be tagged with: nothing older than
// this worker's oldest stashed tag, nor than the staleness horizon implied
// by the pipeline depth, is asked for again.
func (sw *stageWorker) versionHorizon() int {
	min := sw.reflected()
	for _, e := range sw.stash {
		if e.version < min {
			min = e.version
		}
	}
	// Messages still in transit can carry tags lagging by up to the total
	// number of in-flight minibatches; keep one extra round of slack per
	// replica group.
	horizon := sw.reflected() - sw.p.depth*len(sw.p.assign.StageWorkers[0]) - sw.replicas() - 1
	if horizon < min {
		min = horizon
	}
	return min
}

func (sw *stageWorker) trackStash(delta int64) {
	sw.stashBytes += delta
	if sw.stashBytes > sw.peakStashBytes {
		sw.peakStashBytes = sw.stashBytes
	}
	if sw.met != nil && sw.met.stash != nil {
		sw.met.stash.Set(sw.stashBytes)
	}
}
