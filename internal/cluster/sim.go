// Package cluster is a deterministic discrete-event simulator of
// pipeline-parallel DNN training on a hierarchical GPU cluster — the
// substrate that stands in for the paper's V100/1080Ti/TitanX testbeds.
// Workers execute stage forward/backward passes whose durations come from
// a layer profile; activations and gradients travel between stages with
// point-to-point transfer delays; replicated stages pay ring-all_reduce
// weight synchronization. Scheduling policies reproduce PipeDream's 1F1B
// (-RR), GPipe's microbatch-flush pipeline, and traditional model
// parallelism, so every timeline and throughput figure in the paper can be
// regenerated from the same machinery.
package cluster

import (
	"container/heap"
	"fmt"
	"slices"

	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// Config describes one simulation run.
type Config struct {
	Profile *profile.ModelProfile
	Topo    *topology.Topology
	Plan    *partition.Plan
	Policy  schedule.Policy

	// Minibatches to process end to end (forward and backward).
	Minibatches int
	// PipelineDepth overrides NOAM for 1F1B (Figure 18); 0 means NOAM.
	PipelineDepth int
	// Microbatches per GPipe flush; 0 means NOAM.
	Microbatches int
	// BlockingSync makes replicated-stage weight synchronization occupy
	// the worker itself (no overlap). The default models wait-free
	// backpropagation (§2.1): the all_reduce runs on the NIC while the
	// worker computes, and only the worker's NEXT backward pass waits for
	// an unfinished sync — so a replica's period is bwd + max(fwd, sync),
	// the optimizer's price of a replicated stage.
	BlockingSync bool
	// WorkerSpeed optionally scales each worker's compute time (index =
	// worker ID; 1.0 = nominal, 2.0 = twice as slow). Models stragglers
	// and heterogeneous accelerators, which the paper's homogeneous
	// optimizer does not plan for.
	WorkerSpeed []float64
	// Recompute models GPipe-style activation recomputation: stages
	// discard forward activations (shrinking per-minibatch stashes to the
	// stage input) and re-run the forward pass during backward (adding
	// its time to every backward pass).
	Recompute bool
	// RecordTimeline keeps per-op records (needed for figures; costs
	// memory proportional to ops).
	RecordTimeline bool
}

// Result carries the measurements of one run.
type Result struct {
	// TotalTime is the simulated wall time to finish all minibatches.
	TotalTime float64
	// Throughput is the steady-state rate in samples/second, measured
	// over completions after warm-up.
	Throughput float64
	// MeanUtilization is the average busy fraction across workers over
	// the steady-state window.
	MeanUtilization float64
	// PeakMemory is the per-worker peak footprint in bytes (weight
	// versions + activation stashes).
	PeakMemory []int64
	// P2PBytes and SyncBytes are total bytes moved between stages and
	// within replicated stages, respectively.
	P2PBytes, SyncBytes int64
	// Timeline is populated when Config.RecordTimeline is set.
	Timeline *schedule.Timeline
	// Transfers records every asynchronous inter-stage transfer when
	// RecordTimeline is set: Worker is the SENDER, Start the send time,
	// End the arrival (Figure 5's overlapped communication).
	Transfers []schedule.Op
	// CompletionTimes[i] is when minibatch i finished its backward pass
	// at the input stage.
	CompletionTimes []float64
}

// BytesPerSample returns total communicated bytes divided by samples
// processed.
func (r *Result) BytesPerSample(samples int) float64 {
	if samples == 0 {
		return 0
	}
	return float64(r.P2PBytes+r.SyncBytes) / float64(samples)
}

// event kinds.
const (
	evWorkerFree = iota // worker finished its current op
	evActArrive         // activations for a minibatch arrived at a worker
	evGradArrive        // gradients for a minibatch arrived at a worker
)

type event struct {
	time float64
	seq  int // tiebreaker for determinism
	kind int
	w    int // worker
	mb   int // minibatch
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// stageInfo caches per-stage quantities derived from the profile and
// the plan's stage graph.
type stageInfo struct {
	spec         partition.StageSpec
	fwdTime      float64
	bwdTime      float64
	weightB      int64 // stage weights
	actOutB      int64 // activation bytes leaving the stage
	actStashB    int64 // activation bytes stashed per in-flight minibatch
	syncTime     float64
	syncBytes    int64
	inputActB    int64   // activation bytes entering the stage
	bwdParamTime float64 // the part of bwdTime after the upstream gradient left
	// preds/succs are the stage's dataflow neighbors in the plan's
	// graph (for a linear plan: stage-1 and stage+1).
	preds, succs []int
}

type workerState struct {
	ref  schedule.WorkerRef
	busy bool
	// table is the worker's static schedule (schedule.Table) and next
	// the index of the op it runs next: the simulator prices the ops, it
	// does not order them.
	table []schedule.TableOp
	next  int
	// fwdArr/bwdArr count per-minibatch arrivals: a forward is runnable
	// once activations from every predecessor landed, a backward once
	// gradients from every successor did (a sink's own loss gradient
	// counts as its one arrival).
	fwdArr map[int]int
	bwdArr map[int]int
	// stash is the number of in-flight minibatches with stashed state.
	stash     int
	peakStash int
	// nicFree is when the worker's outstanding weight sync completes
	// (wait-free backprop: the next backward waits on it, nothing else).
	nicFree float64
}

type sim struct {
	cfg    Config
	assign *schedule.Assignment
	stages []stageInfo
	ws     []workerState
	h      eventHeap
	seq    int
	now    float64

	depth      int
	completed  int
	complTimes []float64
	timeline   *schedule.Timeline

	p2pBytes, syncBytes int64
	transfers           []schedule.Op

	// GPipe round state.
	round        int
	roundPending int
}

// Simulate runs the configured policy to completion and returns metrics.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Minibatches <= 0 {
		return nil, fmt.Errorf("cluster: minibatches = %d", cfg.Minibatches)
	}
	if cfg.Plan == nil || cfg.Profile == nil || cfg.Topo == nil {
		return nil, fmt.Errorf("cluster: profile, topo, and plan are required")
	}
	s := &sim{cfg: cfg, assign: schedule.Assign(cfg.Plan)}
	if err := s.init(); err != nil {
		return nil, err
	}
	s.run()
	return s.result(), nil
}

func (s *sim) init() error {
	cfg := s.cfg
	prof := cfg.Profile
	graph := cfg.Plan.Graph
	if err := graph.Validate(len(cfg.Plan.Stages)); err != nil {
		return err
	}
	for si, spec := range cfg.Plan.Stages {
		var fwd, bwd, bwdParam float64
		var wB, stash int64
		for l := spec.FirstLayer; l <= spec.LastLayer; l++ {
			fwd += prof.Layers[l].FwdTime
			bwd += prof.Layers[l].BwdTime
			bwdParam += prof.Layers[l].BwdParamTime
			wB += prof.Layers[l].WeightBytes
			stash += prof.Layers[l].ActivationBytes
		}
		info := stageInfo{
			spec:         spec,
			fwdTime:      fwd,
			bwdTime:      bwd,
			bwdParamTime: bwdParam,
			weightB:      wB,
			actOutB:      prof.Layers[spec.LastLayer].ActivationBytes,
			actStashB:    stash,
			preds:        graph.Preds(si),
			succs:        graph.Succs(si),
		}
		if spec.FirstLayer > 0 {
			info.inputActB = prof.Layers[spec.FirstLayer-1].ActivationBytes
		} else {
			info.inputActB = prof.InputBytes
		}
		if spec.Replicas > 1 {
			info.syncTime = cfg.Topo.AllReduceTime(wB, spec.Replicas)
			info.syncBytes = int64(topology.RingBytes(wB, spec.Replicas) * float64(spec.Replicas))
		}
		s.stages = append(s.stages, info)
	}
	s.depth = cfg.PipelineDepth
	if s.depth <= 0 {
		s.depth = cfg.Plan.NOAM
	}
	switch cfg.Policy {
	case schedule.ModelParallelSingle:
		s.depth = 1
	case schedule.GPipe:
		if cfg.Microbatches > 0 {
			s.depth = cfg.Microbatches
		}
	}
	if s.depth < 1 {
		return fmt.Errorf("cluster: pipeline depth %d (plan has NOAM %d; build it with partition.NewPlan)", s.depth, cfg.Plan.NOAM)
	}
	table := schedule.Table(s.assign, cfg.Policy, s.depth, 0, cfg.Minibatches)
	s.ws = make([]workerState, s.assign.NumWorkers())
	for w := range s.ws {
		s.ws[w] = workerState{ref: s.assign.Workers[w], table: table[w],
			fwdArr: make(map[int]int), bwdArr: make(map[int]int)}
	}
	if cfg.RecordTimeline {
		s.timeline = &schedule.Timeline{Workers: s.assign.NumWorkers()}
	}
	s.complTimes = make([]float64, cfg.Minibatches)
	// Kick off: wake every input-stage worker.
	for _, w := range s.assign.StageWorkers[0] {
		s.post(0, evWorkerFree, w, -1)
	}
	return nil
}

func (s *sim) post(t float64, kind, w, mb int) {
	s.seq++
	heap.Push(&s.h, event{time: t, seq: s.seq, kind: kind, w: w, mb: mb})
}

func (s *sim) run() {
	for s.h.Len() > 0 {
		e := heap.Pop(&s.h).(event)
		s.now = e.time
		switch e.kind {
		case evActArrive:
			s.ws[e.w].fwdArr[e.mb]++
		case evGradArrive:
			s.ws[e.w].bwdArr[e.mb]++
		case evWorkerFree:
			s.ws[e.w].busy = false
		}
		s.dispatch(e.w)
	}
}

// dispatch starts worker w's next table op if the worker is free and the
// op's inputs have arrived.
func (s *sim) dispatch(w int) {
	st := &s.ws[w]
	if st.busy || st.next == len(st.table) {
		return
	}
	op := st.table[st.next]
	info := &s.stages[st.ref.Stage]
	if op.Kind == schedule.Forward {
		if st.ref.Stage == 0 {
			// The input stage reads its own data; a GPipe round opens only
			// after the previous round's flush.
			if s.cfg.Policy == schedule.GPipe && op.Minibatch >= (s.round+1)*s.depth {
				return
			}
		} else if st.fwdArr[op.Minibatch] < len(info.preds) {
			return
		}
		delete(st.fwdArr, op.Minibatch)
		st.next++
		s.startForward(w, op.Minibatch)
		return
	}
	if st.bwdArr[op.Minibatch] < max(1, len(info.succs)) {
		return
	}
	delete(st.bwdArr, op.Minibatch)
	st.next++
	s.startBackward(w, op.Minibatch)
}

// speedOf returns worker w's compute-time multiplier.
func (s *sim) speedOf(w int) float64 {
	if w < len(s.cfg.WorkerSpeed) && s.cfg.WorkerSpeed[w] > 0 {
		return s.cfg.WorkerSpeed[w]
	}
	return 1
}

func (s *sim) startForward(w, mb int) {
	st := &s.ws[w]
	info := &s.stages[st.ref.Stage]
	st.busy = true
	end := s.now + info.fwdTime*s.speedOf(w)
	s.record(w, st.ref.Stage, mb, schedule.Forward, s.now, end)
	st.stash++
	if st.stash > st.peakStash {
		st.peakStash = st.stash
	}
	s.onForwardDone(w, mb, end)
	s.post(end, evWorkerFree, w, -1)
}

func (s *sim) onForwardDone(w, mb int, end float64) {
	st := &s.ws[w]
	stage := st.ref.Stage
	succs := s.stages[stage].succs
	if len(succs) == 0 {
		// Sink stage: the loss gradient is available locally as soon as
		// the forward ends (no transfer).
		s.post(end, evGradArrive, w, mb)
		return
	}
	// Route to every successor's round-robin replica; transfers overlap
	// with the sender's subsequent compute (asynchronous sends).
	for _, next := range succs {
		replicas := len(s.assign.StageWorkers[next])
		target := s.assign.StageWorkers[next][schedule.ReplicaFor(mb, replicas)]
		bytes := s.stages[stage].actOutB
		span := s.stages[stage].spec.Replicas + s.stages[next].spec.Replicas
		delay := s.cfg.Topo.P2PTime(bytes, span)
		s.p2pBytes += bytes
		s.recordTransfer(w, stage, mb, end, end+delay)
		s.post(end+delay, evActArrive, target, mb)
	}
}

func (s *sim) startBackward(w, mb int) {
	st := &s.ws[w]
	info := &s.stages[st.ref.Stage]
	st.busy = true
	start := s.now
	syncing := info.spec.Replicas > 1 && s.cfg.Policy != schedule.GPipe && info.syncTime > 0
	if syncing && !s.cfg.BlockingSync && st.nicFree > start {
		// Wait-free backprop: the previous minibatch's all_reduce must
		// finish before this backward's gradients can be produced into
		// the same buffers.
		start = st.nicFree
	}
	bwd := info.bwdTime
	if s.cfg.Recompute {
		bwd += info.fwdTime // re-run the forward to rebuild activations
	}
	end := start + bwd*s.speedOf(w)
	s.record(w, st.ref.Stage, mb, schedule.Backward, start, end)
	if st.stash > 0 {
		st.stash--
	}
	// Per-minibatch weight sync for replicated stages under 1F1B (GPipe
	// aggregates gradients and syncs once per flush, handled at round
	// boundaries).
	if syncing {
		syncEnd := end + info.syncTime
		s.record(w, st.ref.Stage, mb, schedule.SyncOp, end, syncEnd)
		s.syncBytes += info.syncBytes / int64(info.spec.Replicas)
		if s.cfg.BlockingSync {
			end = syncEnd // the worker itself stalls for the all_reduce
		} else {
			st.nicFree = syncEnd // only the next backward waits
		}
	}
	s.onBackwardDone(w, mb, end)
	s.post(end, evWorkerFree, w, -1)
}

func (s *sim) onBackwardDone(w, mb int, end float64) {
	st := &s.ws[w]
	stage := st.ref.Stage
	if stage > 0 {
		// Return a gradient along every in-edge; each carries the size of
		// that predecessor's output activation (for a linear plan this is
		// exactly the stage's input activation), before the parameter
		// halves run; the worker stays busy until end.
		sent := end - s.stages[stage].bwdParamTime*s.speedOf(w)
		for _, prev := range s.stages[stage].preds {
			replicas := len(s.assign.StageWorkers[prev])
			target := s.assign.StageWorkers[prev][schedule.ReplicaFor(mb, replicas)]
			bytes := s.stages[prev].actOutB
			span := s.stages[stage].spec.Replicas + s.stages[prev].spec.Replicas
			delay := s.cfg.Topo.P2PTime(bytes, span)
			s.p2pBytes += bytes
			s.recordTransfer(w, stage, mb, sent, sent+delay)
			s.post(sent+delay, evGradArrive, target, mb)
		}
		return
	}
	// Input stage: minibatch complete.
	if mb < len(s.complTimes) {
		s.complTimes[mb] = end
	}
	s.completed++
	if s.cfg.Policy == schedule.GPipe {
		s.roundPending++
		if s.roundPending == s.roundSize() {
			s.flushRound(end)
		}
	}
}

func (s *sim) roundSize() int {
	remaining := s.cfg.Minibatches - s.round*s.depth
	if remaining > s.depth {
		return s.depth
	}
	return remaining
}

// flushRound applies GPipe's end-of-round weight sync and opens the next
// round.
func (s *sim) flushRound(t float64) {
	// Replicated stages all_reduce the aggregated gradients once per
	// round; every worker of the stage stalls for the sync.
	syncEnd := t
	for si := range s.stages {
		info := &s.stages[si]
		if info.spec.Replicas > 1 && info.syncTime > 0 {
			for _, w := range s.assign.StageWorkers[si] {
				s.record(w, si, -1, schedule.SyncOp, t, t+info.syncTime)
			}
			s.syncBytes += info.syncBytes
			if t+info.syncTime > syncEnd {
				syncEnd = t + info.syncTime
			}
		}
	}
	s.round++
	s.roundPending = 0
	for _, w := range s.assign.StageWorkers[0] {
		s.post(syncEnd, evWorkerFree, w, -1)
	}
}

// recordTransfer logs an asynchronous transfer when timelines are kept.
func (s *sim) recordTransfer(w, stage, mb int, start, end float64) {
	if s.timeline != nil {
		s.transfers = append(s.transfers, schedule.Op{
			Worker: w, Stage: stage, Minibatch: mb,
			Kind: schedule.TransferOp, Start: start, End: end,
		})
	}
}

func (s *sim) record(w, stage, mb int, kind schedule.OpKind, start, end float64) {
	if s.timeline != nil {
		s.timeline.Ops = append(s.timeline.Ops, schedule.Op{
			Worker: w, Stage: stage, Minibatch: mb, Kind: kind, Start: start, End: end,
		})
	}
}

func (s *sim) result() *Result {
	r := &Result{
		TotalTime:       s.now,
		CompletionTimes: s.complTimes,
	}
	// Steady-state throughput: completions after warm-up (2× pipeline
	// depth, capped at half the run).
	inputs := max(1, len(s.assign.StageWorkers[0]))
	warm := 2 * s.depth * inputs
	if warm > s.cfg.Minibatches/2 {
		warm = s.cfg.Minibatches / 2
	}
	if s.cfg.Policy == schedule.GPipe {
		// GPipe completions bunch at flush boundaries; measure whole
		// rounds (round-aligned warm-up through the final flush) or the
		// per-round rate is misread.
		warm = ((warm + s.depth - 1) / s.depth) * s.depth
		if warm >= s.cfg.Minibatches {
			warm = 0
		}
		if warm > 0 {
			dt := s.complTimes[s.cfg.Minibatches-1] - s.complTimes[warm-1]
			if dt > 0 {
				r.Throughput = float64(s.cfg.Minibatches-warm) * float64(s.cfg.Profile.MinibatchSize) / dt
			}
		}
	} else if rounds := (s.cfg.Minibatches - 1 - warm) / inputs; rounds > 0 {
		// Whole rounds of the input stage's replicas, from minibatch warm
		// to one the same replica completes: all R replicas start at once,
		// so a window opening or closing mid-round would count minibatches
		// that took no time inside it.
		dt := s.complTimes[warm+rounds*inputs] - s.complTimes[warm]
		if dt > 0 {
			r.Throughput = float64(rounds*inputs) * float64(s.cfg.Profile.MinibatchSize) / dt
		}
	}
	if r.Throughput == 0 && s.now > 0 {
		r.Throughput = float64(s.cfg.Minibatches) * float64(s.cfg.Profile.MinibatchSize) / s.now
	}
	r.PeakMemory = make([]int64, len(s.ws))
	for w := range s.ws {
		info := &s.stages[s.ws[w].ref.Stage]
		versions := int64(s.ws[w].peakStash)
		if versions < 1 {
			versions = 1
		}
		stash := info.actStashB + info.inputActB
		if s.cfg.Recompute {
			stash = info.inputActB // only the stage input is kept
		}
		r.PeakMemory[w] = info.weightB*versions + int64(s.ws[w].peakStash)*stash
	}
	r.P2PBytes = s.p2pBytes
	r.SyncBytes = s.syncBytes
	if s.timeline != nil {
		s.timeline.Horizon = s.now
		r.Timeline = s.timeline
		r.Transfers = s.transfers
		// Utilization counts from the moment `warm` minibatches are done —
		// by count, not by index: a GPipe round completes its microbatches
		// in reverse.
		warmT := 0.0
		if s.cfg.Minibatches > warm {
			warmT = slices.Sorted(slices.Values(s.complTimes))[warm]
		}
		r.MeanUtilization = s.timeline.MeanUtilization(warmT)
	}
	return r
}
