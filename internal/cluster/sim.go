// Package cluster is a deterministic discrete-event simulator of
// pipeline-parallel DNN training on a hierarchical GPU cluster — the
// substrate that stands in for the paper's V100/1080Ti/TitanX testbeds.
// Workers execute stage forward/backward passes whose durations come from
// a layer profile; activations and gradients queue for one link per edge
// of the plan's stage graph; replicated stages pay ring-all_reduce
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

	// Minibatches to process end to end (forward and backward). The
	// plan's Depth is the pipeline depth: 1F1B's in-flight minibatches
	// at the input stage (Figure 18) or GPipe's microbatches per flush.
	Minibatches int
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
	// over completions in time order after warm-up.
	Throughput float64
	// MeanUtilization is the average busy fraction across workers over
	// the steady-state window.
	MeanUtilization float64
	// PeakMemory is the per-worker peak footprint in bytes:
	// partition.WorkerMemory at the most minibatches the worker held
	// between forward and backward.
	PeakMemory []int64
	// P2PBytes and SyncBytes are total bytes moved between stages and
	// within replicated stages, respectively.
	P2PBytes, SyncBytes int64
	// Timeline is populated when Config.RecordTimeline is set.
	Timeline *schedule.Timeline
	// Transfers records every asynchronous inter-stage transfer when
	// RecordTimeline is set: Worker is the SENDER, Start the time the
	// transfer entered its link (after any earlier transfer on it), End
	// the time it left the link and arrived (Figure 5's overlap).
	Transfers []schedule.Op
	// CompletionTimes[i] is when minibatch i finished its backward pass
	// at the input stage.
	CompletionTimes []float64
}

// event kinds.
const (
	evWorkerFree = iota // worker finished its current op
	evActArrive         // activations for a minibatch arrived at a worker
	evGradArrive        // gradients for a minibatch arrived at a worker
	evSend              // a transfer from worker src is ready for its link
)

type event struct {
	time              float64
	seq               int // tiebreaker for determinism
	kind              int
	w                 int // worker (for evSend, the receiver)
	mb                int // minibatch
	src, link, arrive int // evSend: the sender, its sim.links index, the arrival kind
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
	actOutB      int64 // activation bytes leaving the stage
	syncTime     float64
	syncBytes    int64
	bwdParamTime float64 // the part of bwdTime after the upstream gradient left
	// in/out index sim.links: the stage's dataflow edges in the plan's
	// graph (for a linear plan: from stage-1 and to stage+1).
	in, out []int
}

// link is one edge of the plan's stage graph, carrying both directions to
// and from every replica of either stage: the link partition's edgeTime
// prices at 2·P2PTime per minibatch. It serves transfers in ready order,
// each holding it for time. The ring all_reduce keeps nicFree instead:
// the planner prices sync and edges apart, and ring peers are replicas of
// one stage, edge peers workers of adjacent stages, so the runtime never
// puts both on one TCP connection either.
type link struct {
	from, to int     // stages
	time     float64 // P2PTime of from's output activation: one transfer's hold
	free     float64 // when the link has sent every transfer it accepted
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
	links  []link
	h      eventHeap
	seq    int
	now    float64

	depth      int
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
	for _, spec := range cfg.Plan.Stages {
		var fwd, bwd, bwdParam float64
		var wB int64
		for l := spec.FirstLayer; l <= spec.LastLayer; l++ {
			fwd += prof.Layers[l].FwdTime
			bwd += prof.Layers[l].BwdTime
			bwdParam += prof.Layers[l].BwdParamTime
			wB += prof.Layers[l].WeightBytes
		}
		info := stageInfo{
			spec:         spec,
			fwdTime:      fwd,
			bwdTime:      bwd,
			bwdParamTime: bwdParam,
			actOutB:      prof.Layers[spec.LastLayer].ActivationBytes,
		}
		if spec.Replicas > 1 {
			info.syncTime = cfg.Topo.AllReduceTime(wB, spec.Replicas)
			info.syncBytes = int64(topology.RingBytes(wB, spec.Replicas) * float64(spec.Replicas))
		}
		s.stages = append(s.stages, info)
	}
	for i, e := range graph.Edges {
		span := cfg.Plan.Stages[e.From].Replicas + cfg.Plan.Stages[e.To].Replicas
		s.links = append(s.links, link{from: e.From, to: e.To, time: cfg.Topo.P2PTime(s.stages[e.From].actOutB, span)})
		s.stages[e.From].out = append(s.stages[e.From].out, i)
		s.stages[e.To].in = append(s.stages[e.To].in, i)
	}
	if cfg.Plan.Depth < 1 {
		return fmt.Errorf("cluster: plan has depth %d (build it with partition.NewPlan)", cfg.Plan.Depth)
	}
	s.depth = cfg.Plan.Depth
	if cfg.Policy == schedule.ModelParallelSingle {
		s.depth = 1
	}
	table := schedule.Table(s.assign, cfg.Policy, 0, cfg.Minibatches)
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

// send posts a transfer over link l from worker src to worker dst, ready
// at t: it queues for the link when that event is handled.
func (s *sim) send(t float64, l, src, dst, mb, arrive int) {
	s.p2pBytes += s.stages[s.links[l].from].actOutB
	s.seq++
	heap.Push(&s.h, event{time: t, seq: s.seq, kind: evSend, w: dst, mb: mb, src: src, link: l, arrive: arrive})
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
		case evSend:
			l := &s.links[e.link]
			start := max(s.now, l.free)
			l.free = start + l.time
			if s.timeline != nil {
				s.transfers = append(s.transfers, schedule.Op{Worker: e.src, Stage: s.ws[e.src].ref.Stage,
					Minibatch: e.mb, Kind: schedule.TransferOp, Start: start, End: l.free})
			}
			s.post(l.free, e.arrive, e.w, e.mb)
			continue
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
		} else if st.fwdArr[op.Minibatch] < len(info.in) {
			return
		}
		delete(st.fwdArr, op.Minibatch)
		st.next++
		s.startForward(w, op.Minibatch)
		return
	}
	if st.bwdArr[op.Minibatch] < max(1, len(info.out)) {
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
	out := s.stages[s.ws[w].ref.Stage].out
	if len(out) == 0 {
		// Sink stage: the loss gradient is available locally as soon as
		// the forward ends (no transfer).
		s.post(end, evGradArrive, w, mb)
		return
	}
	// Route to every successor's round-robin replica; transfers overlap
	// with the sender's subsequent compute (asynchronous sends).
	for _, l := range out {
		s.send(end, l, w, s.replicaOf(s.links[l].to, mb), mb, evActArrive)
	}
}

// replicaOf returns the worker of stage that handles minibatch mb.
func (s *sim) replicaOf(stage, mb int) int {
	workers := s.assign.StageWorkers[stage]
	return workers[schedule.ReplicaFor(mb, len(workers))]
}

func (s *sim) startBackward(w, mb int) {
	st := &s.ws[w]
	info := &s.stages[st.ref.Stage]
	st.busy = true
	start := s.now
	syncing := info.spec.Replicas > 1 && s.cfg.Policy != schedule.GPipe && info.syncTime > 0
	if syncing && st.nicFree > start {
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
		st.nicFree = syncEnd // only the next backward waits
	}
	s.onBackwardDone(w, mb, end)
	s.post(end, evWorkerFree, w, -1)
}

func (s *sim) onBackwardDone(w, mb int, end float64) {
	stage := s.ws[w].ref.Stage
	if stage > 0 {
		// Return a gradient along every in-edge; each carries the size of
		// that predecessor's output activation (for a linear plan this is
		// exactly the stage's input activation), before the parameter
		// halves run; the worker stays busy until end.
		sent := end - s.stages[stage].bwdParamTime*s.speedOf(w)
		for _, l := range s.stages[stage].in {
			s.send(sent, l, w, s.replicaOf(s.links[l].from, mb), mb, evGradArrive)
		}
		return
	}
	// Input stage: minibatch complete.
	s.complTimes[mb] = end
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
	// depth, capped at half the run), counted in time order, not by
	// minibatch: below a replicated plan's depth the input replicas'
	// minibatches can drift apart, and one replica's alone misread the
	// run's rate (up to 1.6× on random plans).
	inputs := max(1, len(s.assign.StageWorkers[0]))
	warm := min(2*s.depth*inputs, s.cfg.Minibatches/2)
	done := slices.Sorted(slices.Values(s.complTimes))
	if s.cfg.Policy == schedule.GPipe {
		// GPipe completions bunch at flush boundaries; measure whole
		// rounds (round-aligned warm-up through the final flush) or the
		// per-round rate is misread.
		warm = ((warm + s.depth - 1) / s.depth) * s.depth
		if warm >= s.cfg.Minibatches {
			warm = 0
		}
		if warm > 0 {
			dt := done[s.cfg.Minibatches-1] - done[warm-1]
			if dt > 0 {
				r.Throughput = float64(s.cfg.Minibatches-warm) * float64(s.cfg.Profile.MinibatchSize) / dt
			}
		}
	} else if rounds := (s.cfg.Minibatches - 1 - warm) / inputs; rounds > 0 {
		// Whole rounds of R completions from the warm-th on (all R input
		// replicas start at once, so a window cut mid-round counts
		// minibatches that took no time in it), stopping warm short of
		// the end: the drain bunches completions.
		// A steady state may repeat only every few rounds, so the rate is
		// the least-squares slope through the rounds' ends: a window's two
		// ends alone misread a partial period by a round's swing.
		rounds = max(1, (s.cfg.Minibatches-1-2*warm)/inputs)
		var cov float64 // Σ (j - rounds/2)·(t_j - t_0) over rounds j = 0..rounds
		for j := 0; j <= rounds; j++ {
			cov += (float64(j) - float64(rounds)/2) * (done[warm+j*inputs] - done[warm])
		}
		if cov > 0 {
			variance := float64(rounds*(rounds+1)*(rounds+2)) / 12 // Σ (j - rounds/2)²
			r.Throughput = float64(inputs*s.cfg.Profile.MinibatchSize) * variance / cov
		}
	}
	if r.Throughput == 0 && s.now > 0 {
		r.Throughput = float64(s.cfg.Minibatches) * float64(s.cfg.Profile.MinibatchSize) / s.now
	}
	r.PeakMemory = make([]int64, len(s.ws))
	for w, st := range s.ws {
		r.PeakMemory[w] = partition.WorkerMemory(s.cfg.Profile, s.stages[st.ref.Stage].spec, st.peakStash,
			s.cfg.Policy == schedule.GPipe, s.cfg.Recompute)
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
			warmT = done[warm]
		}
		r.MeanUtilization = s.timeline.MeanUtilization(warmT)
	}
	return r
}
