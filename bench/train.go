package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/cluster"
	"pipedream/internal/collective"
	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// trainSpec is one training workload: a model and dataset drawn from the
// seed, a fixed stage assignment, and the transport and collective it
// runs on. The stage assignment is fixed rather than left to the
// optimizer so that profiling noise cannot change the workload's shape
// from one run to the next.
type trainSpec struct {
	name  string
	build func(seed int64) (func() *nn.Sequential, data.Dataset)
	// stages assigns layers to stages; Replicas > 1 runs 1F1B-RR.
	stages []partition.StageSpec
	tcp    bool
	ring   bool
	// perCall is the minibatches in one Train call, frozen so that one
	// call takes about 100 ms on a 2-core box: short enough that a run
	// holds over a hundred calls for the p90, long enough that a call is
	// mostly steady state rather than pipeline fill and drain.
	perCall int
	lr      float64
}

var trainSpecs = []*trainSpec{
	{
		// Wide Dense/Tanh MLP on in-process channels: tensor and nn
		// kernels are nearly all of the bottleneck stage's time and a
		// message is a pointer.
		name: "train-compute",
		build: func(seed int64) (func() *nn.Sequential, data.Dataset) {
			const width, batch, classes = 256, 64, 8
			return func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					nn.NewDense(rng, "fc1", width, width), nn.NewTanh("t1"),
					nn.NewDense(rng, "fc2", width, width), nn.NewTanh("t2"),
					nn.NewDense(rng, "fc3", width, width), nn.NewTanh("t3"),
					nn.NewDense(rng, "fc4", width, width), nn.NewTanh("t4"),
					nn.NewDense(rng, "out", width, classes),
				)
			}, data.NewBlobs(seed+1, classes, width, batch, 32)
		},
		stages:  []partition.StageSpec{{FirstLayer: 0, LastLayer: 3, Replicas: 1}, {FirstLayer: 4, LastLayer: 8, Replicas: 1}},
		perCall: 6,
		lr:      0.01,
	},
	{
		// Four stages over loopback TCP moving a 1 MB activation and a
		// 1 MB gradient per edge per minibatch ([16, 32, 512] float32)
		// with almost no arithmetic: frame encode/decode and the socket
		// do the work.
		name: "train-comm",
		build: func(seed int64) (func() *nn.Sequential, data.Dataset) {
			const vocab, dim, seq, batch = 4, 512, 32, 16
			return func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					nn.NewEmbedding(rng, "emb", vocab, dim),
					nn.NewReLU("r1"),
					nn.NewReLU("r2"),
					nn.NewFlattenTime("ft"),
					nn.NewDense(rng, "dec", dim, vocab),
				)
			}, data.NewSequenceCopy(seed+1, vocab, seq, batch, 32)
		},
		stages: []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 0, Replicas: 1}, {FirstLayer: 1, LastLayer: 1, Replicas: 1},
			{FirstLayer: 2, LastLayer: 2, Replicas: 1}, {FirstLayer: 3, LastLayer: 4, Replicas: 1},
		},
		tcp:     true,
		perCall: 18,
		lr:      0.5,
	},
	{
		// First stage replicated twice (1F1B-RR) with about 1 MB of
		// weights, ring all-reduce over loopback TCP: the replicas spend
		// their time in gradient sync, and the transport carries many
		// small GradChunk frames interleaved with activations.
		name: "train-replicated",
		build: func(seed int64) (func() *nn.Sequential, data.Dataset) {
			const in, width, batch, classes = 64, 512, 4, 8
			return func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					nn.NewDense(rng, "fc1", in, width), nn.NewTanh("t1"),
					nn.NewDense(rng, "fc2", width, width), nn.NewTanh("t2"),
					nn.NewDense(rng, "out", width, classes),
				)
			}, data.NewBlobs(seed+1, classes, in, batch, 32)
		},
		stages:  []partition.StageSpec{{FirstLayer: 0, LastLayer: 3, Replicas: 2}, {FirstLayer: 4, LastLayer: 4, Replicas: 1}},
		tcp:     true,
		ring:    true,
		perCall: 48,
		lr:      0.01,
	},
}

func (s *trainSpec) workers() int {
	n := 0
	for _, st := range s.stages {
		n += st.Replicas
	}
	return n
}

// kernelParallelism is the tensor-kernel fan-out each stage worker gets:
// the cores left per worker, as Pipeline.Train would choose. The profile
// is measured at the same degree.
func (s *trainSpec) kernelParallelism() int {
	return max(1, runtime.NumCPU()/s.workers())
}

// linkBandwidth is the bytes/second the plan is priced with: loopback TCP
// is taken as 1 GB/s and in-process channels as free (1 TB/s). Both are
// constants of the benchmark, not measurements.
func linkBandwidth(tcp bool) float64 {
	if tcp {
		return 1e9
	}
	return 1e12
}

// trainRig is one built pipeline ready for measured Train calls.
type trainRig struct {
	spec    *trainSpec
	factory func() *nn.Sequential
	ds      data.Dataset
	prof    *profile.ModelProfile
	topo    *topology.Topology
	plan    *partition.Plan
	tr      transport.Transport
	p       *pipeline.Pipeline
	oplog   *metrics.OpLog
	// warm is the report of the warm-up call, the pipeline's first.
	warm *pipeline.Report
}

func (rig *trainRig) close() {
	rig.p.Close()
	if rig.tr != nil {
		rig.tr.Close()
	}
}

// setup does everything a user does before the first measured minibatch:
// build dataset and model, profile, plan, build the pipeline, and make
// one warm-up Train call. tcp selects the transport (the workload's own,
// or the other one for the transport comparison); instrument turns on
// the runtime's metrics registry and op log.
func (s *trainSpec) setup(r *run, parent int, tcp, instrument bool) (*trainRig, error) {
	rig := &trainRig{spec: s}
	rig.factory, rig.ds = s.build(r.seed)
	model := rig.factory()
	kp := s.kernelParallelism()
	r.note("kernel_parallelism", kp)
	tensor.SetParallelism(kp)
	if err := r.rec.call(parent, "profile", "profile.Measure", func(int) error {
		rig.prof = profile.Measure(model, s.name, rig.ds, 4)
		return rig.prof.Validate()
	}); err != nil {
		return nil, err
	}
	syncCfg, syncModel := pipeline.SyncConfig{}, partition.SyncRing
	if s.ring {
		syncCfg.AllReduce = collective.Ring
	}
	rig.topo = topology.Flat(s.workers(), linkBandwidth(tcp), topology.V100)
	if err := r.rec.call(parent, "partition", "partition.NewPlan", func(int) (err error) {
		rig.plan, err = partition.NewPlan(rig.prof, rig.topo, partition.PlanOptions{Stages: s.stages, Sync: syncModel})
		return err
	}); err != nil {
		return nil, err
	}
	opts := pipeline.Options{
		ModelFactory:  rig.factory,
		Plan:          rig.plan,
		Loss:          nn.SoftmaxCrossEntropy,
		NewOptimizer:  func() nn.Optimizer { return nn.NewSGD(s.lr, 0, 0) },
		RuntimeConfig: pipeline.RuntimeConfig{KernelParallelism: kp},
		SyncConfig:    syncCfg,
	}
	if instrument {
		opts.Metrics = metrics.NewRegistry()
		rig.oplog = metrics.NewOpLog(0)
		rig.oplog.SetOrigin(r.rec.origin)
		opts.OpLog = rig.oplog
	}
	if tcp {
		tr, err := transport.NewTCP(s.workers(), cliconf.Buffer(rig.plan, model, syncCfg))
		if err != nil {
			return nil, err
		}
		rig.tr, opts.Transport = tr, tr
	}
	if err := r.rec.call(parent, "pipeline", "pipeline.New", func(int) (err error) {
		rig.p, err = pipeline.New(opts)
		return err
	}); err != nil {
		if rig.tr != nil {
			rig.tr.Close()
		}
		return nil, err
	}
	var err error
	if rig.warm, err = rig.train(r, parent); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// train makes one Train call of perCall minibatches inside a span.
func (rig *trainRig) train(r *run, parent int) (rep *pipeline.Report, err error) {
	err = r.rec.call(parent, "pipeline", "Pipeline.Train", func(int) error {
		rep, err = rig.p.Train(rig.ds, rig.spec.perCall)
		return err
	})
	return rep, err
}

// trainSample is what a sequence of measured Train calls yields.
type trainSample struct {
	callSeconds []float64
	minibatches int
	failed      int       // minibatches of calls that failed a gate
	lastLoss    []float64 // mean loss of each call, most recent last
	stages      []pipeline.StageStats
	faults      pipeline.FaultStats
	peakStash   int64
}

// perSecond is the minibatches per second of the sample's undisturbed
// calls (see undisturbed in stats.go).
func (t *trainSample) perSecond() float64 {
	perCall := float64(t.minibatches) / float64(len(t.callSeconds))
	return perCall / quantile(t.callSeconds, undisturbed)
}

// trainFor makes Train calls until d has elapsed (at least one) and
// checks each: no error, every loss finite, Report.Samples exact. m, when
// not nil, is told of every call's minibatches.
func (rig *trainRig) trainFor(r *run, parent int, d time.Duration, m *meter) *trainSample {
	s := &trainSample{}
	batch := rig.ds.Batch(0).X.Dim(0)
	perCall := rig.spec.perCall
	for start := time.Now(); len(s.callSeconds) == 0 || time.Since(start) < d; {
		t0 := time.Now()
		rep, err := rig.train(r, parent)
		dt := time.Since(t0).Seconds()
		m.done(perCall)
		s.minibatches += perCall
		s.callSeconds = append(s.callSeconds, dt)
		if err != nil {
			s.failed += perCall
			r.problem("%s: Train: %v", rig.spec.name, err)
			break // a failed call leaves the pipeline in an unknown state
		}
		if bad := checkReport(rep, perCall, batch); bad != "" {
			s.failed += perCall
			r.problem("%s: %s", rig.spec.name, bad)
		}
		s.lastLoss = append(s.lastLoss, rep.MeanLoss())
		s.addStages(rep)
	}
	return s
}

func checkReport(rep *pipeline.Report, perCall, batch int) string {
	if len(rep.Losses) != perCall || rep.Samples != perCall*batch {
		return fmt.Sprintf("report has %d losses and %d samples, want %d and %d", len(rep.Losses), rep.Samples, perCall, perCall*batch)
	}
	for i, l := range rep.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Sprintf("loss %d is %v", i, l)
		}
	}
	return ""
}

// addStages accumulates one call's per-worker statistics (present only
// when the rig is instrumented).
func (t *trainSample) addStages(rep *pipeline.Report) {
	t.faults.TransportReconnects += rep.Faults.TransportReconnects
	t.faults.TransportSendErrors += rep.Faults.TransportSendErrors
	for _, b := range rep.PeakStashBytes {
		t.peakStash = max(t.peakStash, b)
	}
	if t.stages == nil {
		t.stages = make([]pipeline.StageStats, len(rep.Stages))
	}
	for i, st := range rep.Stages {
		a := &t.stages[i]
		// MeanStaleness is per backward pass: keep it as a sum until read.
		a.MeanStaleness += st.MeanStaleness * float64(st.BwdOps)
		a.Worker, a.Stage, a.Replica = st.Worker, st.Stage, st.Replica
		a.FwdOps += st.FwdOps
		a.BwdOps += st.BwdOps
		a.FwdTime += st.FwdTime
		a.BwdTime += st.BwdTime
		a.SyncWait += st.SyncWait
		a.SyncFirstWait += st.SyncFirstWait
		a.Idle += st.Idle
		a.Wall += st.Wall
		a.MaxStaleness = max(a.MaxStaleness, st.MaxStaleness)
	}
}

// lossRatio is the mean loss of the last ten calls over the mean loss of
// the pipeline's first call.
func lossRatio(warm *pipeline.Report, s *trainSample) float64 {
	return mean(s.lastLoss[max(0, len(s.lastLoss)-10):]) / warm.MeanLoss()
}

// An end-to-end training run is trainRounds rounds: each sets up
// setupsPerRound times from scratch and then measures Train calls on the
// last pipeline built, for an equal share of the run. The samples of all
// rounds are pooled. Rounds exist for setup_s: a disturbance lasts seconds,
// so set-ups made in one burst are often all disturbed, and bursts several
// seconds apart rarely are.
const trainRounds, setupsPerRound = 4, 6

// repeatSetup sets up n times, closing every rig but the last, and returns
// that rig with each set-up's seconds.
func (s *trainSpec) repeatSetup(r *run, n int) (rig *trainRig, seconds []float64, err error) {
	for i := 0; i < n; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		if rig, err = s.setup(r, -1, s.tcp, false); err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return rig, seconds, nil
}

// measureRound makes Train calls on rig for d, every call a slice of m,
// applies the end-of-run gates and closes rig.
func (s *trainSpec) measureRound(r *run, rig *trainRig, m *meter, d time.Duration) *trainSample {
	defer rig.close()
	m.start()
	sample := rig.trainFor(r, -1, d, m)
	s.checkOutcome(r, rig, sample)
	return sample
}

// runTrainEndToEnd is the instrumentation-off run of a training workload.
func runTrainEndToEnd(r *run, s *trainSpec) error {
	m := &meter{cpu: procSelfCPUSeconds}
	var setups, calls []float64
	for round := 0; round < trainRounds; round++ {
		rig, seconds, err := s.repeatSetup(r, setupsPerRound)
		if err != nil {
			return err
		}
		sample := s.measureRound(r, rig, m, r.duration(1.0/trainRounds))
		setups = append(setups, seconds...)
		for _, c := range sample.callSeconds {
			calls = append(calls, c*1e3)
		}
		r.attempted, r.failed = r.attempted+sample.minibatches, r.failed+sample.failed
	}
	rss, err := procPeakRSSMB(r.pid)
	if err != nil {
		return err
	}
	r.note("calls", len(calls))
	r.note("call_ms_p50", median(calls))
	r.note("call_ms_p90", quantile(calls, 0.9))
	r.sample("call_ms", calls)
	return r.setEndToEnd(setups, m, quantile(calls, undisturbed), rss)
}

// checkOutcome applies the end-of-run gates: the loss fell to under half
// its first-call value, and the replicas of a replicated stage hold
// bit-equal parameters.
func (s *trainSpec) checkOutcome(r *run, rig *trainRig, sample *trainSample) {
	if len(sample.lastLoss) == 0 {
		return // the only call failed; already recorded
	}
	if ratio := lossRatio(rig.warm, sample); !(ratio < 0.5) {
		r.problem("%s: loss ratio %.3f, want < 0.5", s.name, ratio)
	}
	for st, spec := range s.stages {
		ref := rig.p.StageModel(st, 0).Params()
		for rep := 1; rep < spec.Replicas; rep++ {
			for i, p := range rig.p.StageModel(st, rep).Params() {
				for j := range p.Data {
					if math.Float32bits(p.Data[j]) != math.Float32bits(ref[i].Data[j]) {
						r.problem("%s: stage %d replica %d param %d differs from replica 0 at %d", s.name, st, rep, i, j)
						return
					}
				}
			}
		}
	}
}

// runTrainTraced is the instrumented run: the same workload with the
// runtime's metrics and op log on and every call into a layer in a span,
// then the comparison segments the per-layer numbers need.
func runTrainTraced(r *run, s *trainSpec) error {
	var rig *trainRig
	if err := r.rec.call(-1, "bench", "setup", func(id int) (err error) {
		rig, err = s.setup(r, id, s.tcp, true)
		return err
	}); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hits0, misses0, _ := tensor.PoolCounters()
	var traced *trainSample
	_ = r.rec.call(-1, "bench", "traced-run", func(id int) error {
		traced = rig.trainFor(r, id, r.duration(0.3), nil)
		return nil
	})
	hits1, misses1, _ := tensor.PoolCounters()
	runtime.ReadMemStats(&ms1)
	s.checkOutcome(r, rig, traced)
	r.attempted, r.failed = traced.minibatches, traced.failed

	var sim *cluster.Result
	err := r.rec.call(-1, "cluster", "cluster.Simulate", func(int) (err error) {
		sim, err = cluster.Simulate(cluster.Config{Profile: rig.prof, Topo: rig.topo, Plan: rig.plan, Policy: schedule.PipeDream1F1B, Minibatches: 200})
		return err
	})
	if err != nil {
		return err
	}
	if r.runtimeEvents, err = runtimeEvents(rig.oplog); err != nil {
		return err
	}
	if d := rig.oplog.Dropped(); d > 0 {
		r.note("oplog_dropped", d)
	}
	rig.close()

	// The same workload untraced, on its own transport and on the other
	// one, both from fresh same-seed pipelines.
	var own, other *trainSample
	var ownWarm *pipeline.Report
	for _, tcp := range []bool{s.tcp, !s.tcp} {
		plain, err := s.setup(r, -1, tcp, false)
		if err != nil {
			return err
		}
		sample := plain.trainFor(r, -1, r.duration(0.2), nil)
		plain.close()
		if tcp == s.tcp {
			own, ownWarm = sample, plain.warm
		} else {
			other = sample
		}
	}
	onTCP, onChan := own, other
	if !s.tcp {
		onTCP, onChan = other, own
	}
	single := measureSingleWorker(rig.factory(), rig.ds, s.lr, r.duration(0.05))

	r.set("pipeline.trace_overhead_pct", (own.perSecond()-traced.perSecond())/own.perSecond()*100)
	r.set("pipeline.nondet_losses", float64(differingLosses(rig.warm.Losses, ownWarm.Losses)))
	r.set("pipeline.loss_ratio", lossRatio(rig.warm, traced))
	r.set("pipeline.call_ms_p50", median(own.callSeconds)*1e3)
	r.set("pipeline.call_ms_p90", quantile(own.callSeconds, 0.9)*1e3)
	r.set("pipeline.speedup_vs_single", own.perSecond()/single.perSecond)
	r.set("transport.tcp_vs_chan_ratio", onTCP.perSecond()/onChan.perSecond())
	r.set("transport.send_errors", float64(traced.faults.TransportSendErrors))
	r.set("transport.reconnects", float64(traced.faults.TransportReconnects))
	r.set("transport.wire_bytes_per_mb", s.wireBytesPerMinibatch(rig.prof))
	r.set("nn.fwd_us", single.fwdUs)
	r.set("nn.bwd_us", single.bwdUs)
	r.set("nn.opt_us", single.optUs)
	r.set("nn.single_worker_mb_per_s", single.perSecond)
	r.set("tensor.pool_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)))
	r.set("proc.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(traced.minibatches))
	r.set("proc.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.set("profile.measure_ms", median(r.rec.durations("profile.Measure"))*1e3)
	r.set("cluster.pred_mb_per_s", sim.Throughput/float64(rig.prof.MinibatchSize))
	r.set("cluster.pred_err_pct", math.Abs(sim.Throughput/float64(rig.prof.MinibatchSize)-own.perSecond())/own.perSecond()*100)
	setStageMetrics(r, s, rig.plan, traced)
	r.notApplicable(serveHTTPOnly...)
	if err := timePlanner(r, rig.prof, rig.topo); err != nil {
		return err
	}
	_, err = measureInprocServe(r)
	return err
}

// setStageMetrics derives the pipeline.* and collective.sync_* numbers
// from the per-worker statistics summed over the traced calls.
func setStageMetrics(r *run, s *trainSpec, plan *partition.Plan, t *trainSample) {
	var wall, compute, idle, syncWait, ops, staleSum, bwdOps float64
	var repWall, repSync, repFirst float64
	var bottleneck, bubbleMax, bubbleBottleneck, maxStale, predErr float64
	for _, st := range t.stages {
		c := (st.FwdTime + st.BwdTime).Seconds()
		wall += st.Wall.Seconds()
		compute += c
		idle += st.Idle.Seconds()
		syncWait += st.SyncWait.Seconds()
		ops += float64(st.FwdOps + st.BwdOps)
		staleSum += st.MeanStaleness
		bwdOps += float64(st.BwdOps)
		maxStale = max(maxStale, float64(st.MaxStaleness))
		bubble := 1 - c/st.Wall.Seconds()
		bubbleMax = max(bubbleMax, bubble)
		if c > bottleneck {
			bottleneck, bubbleBottleneck = c, bubble
		}
		replicas := s.stages[st.Stage].Replicas
		if replicas > 1 {
			repWall += st.Wall.Seconds()
			repSync += st.SyncWait.Seconds()
			repFirst += st.SyncFirstWait.Seconds()
		}
		// Plan.StageTimes is per minibatch amortised over replicas; a
		// replica sees every replicas-th minibatch.
		measured := c / float64(st.BwdOps) / float64(replicas)
		predErr = max(predErr, math.Abs(plan.StageTimes[st.Stage]-measured)/measured*100)
	}
	r.set("pipeline.compute_share", compute/wall)
	r.set("pipeline.idle_share", idle/wall)
	r.set("pipeline.sync_share", syncWait/wall)
	r.set("pipeline.bubble_bottleneck", bubbleBottleneck)
	r.set("pipeline.bubble_max", bubbleMax)
	r.set("pipeline.overhead_us_per_op", (wall-compute-idle-syncWait)/ops*1e6)
	r.set("pipeline.peak_stash_bytes", float64(t.peakStash))
	r.set("pipeline.mean_staleness", staleSum/bwdOps)
	r.set("pipeline.max_staleness", maxStale)
	r.set("collective.sync_wait_share", ratio(repSync, repWall))
	r.set("collective.sync_first_wait_share", ratio(repFirst, repSync))
	r.set("partition.pred_stage_err_pct", predErr)
}

// ratio is a/b, and 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// differingLosses counts positions at which two same-seed loss sequences
// are not bit-equal.
func differingLosses(a, b []float64) int {
	n := 0
	for i := range a {
		if i >= len(b) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			n++
		}
	}
	return n
}

// wireBytesPerMinibatch is the payload one minibatch puts on the
// transport, computed from tensor sizes rather than counted on the wire:
// an activation and an equal-sized gradient per stage boundary, plus the
// ring all-reduce's 2(R-1)/R of the stage's weights per replica per
// round of R minibatches.
func (s *trainSpec) wireBytesPerMinibatch(prof *profile.ModelProfile) float64 {
	total := 0.0
	for i, st := range s.stages {
		if i < len(s.stages)-1 {
			total += 2 * float64(prof.ActivationBytes(st.LastLayer))
		}
		if s.ring && st.Replicas > 1 {
			rr := float64(st.Replicas)
			total += 2 * (rr - 1) / rr * float64(prof.WeightRange(st.FirstLayer, st.LastLayer))
		}
	}
	return total
}

// singleWorker is the plain one-goroutine baseline of a model: forward,
// loss, backward and optimizer step per minibatch.
type singleWorker struct {
	fwdUs, bwdUs, optUs, perSecond float64
}

func measureSingleWorker(model *nn.Sequential, ds data.Dataset, lr float64, d time.Duration) singleWorker {
	opt := nn.NewSGD(lr, 0, 0)
	var fwd, bwd, step time.Duration
	var each []float64 // seconds per minibatch
	for start := time.Now(); len(each) == 0 || time.Since(start) < d; {
		b := ds.Batch(len(each))
		t0 := time.Now()
		y, ctx := model.Forward(b.X, true)
		_, grad := nn.SoftmaxCrossEntropy(y, b.Labels)
		t1 := time.Now()
		model.ZeroGrads()
		model.Backward(ctx, grad)
		t2 := time.Now()
		opt.Step(model.Params(), model.Grads())
		t3 := time.Now()
		fwd, bwd, step = fwd+t1.Sub(t0), bwd+t2.Sub(t1), step+t3.Sub(t2)
		each = append(each, t3.Sub(t0).Seconds())
	}
	per := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(len(each)) }
	// The same quantile as the pipeline's throughput it is compared with.
	return singleWorker{fwdUs: per(fwd), bwdUs: per(bwd), optUs: per(step), perSecond: 1 / quantile(each, undisturbed)}
}
