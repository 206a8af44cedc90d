// Package cluster is a deterministic discrete-event simulator of
// pipeline-parallel DNN training on a hierarchical GPU cluster — the
// substrate that stands in for the paper's V100/1080Ti/TitanX testbeds.
// Workers run the plan's schedule.EventGraph: stage forward/backward
// passes whose durations come from a layer profile; activations and
// gradients queue for one link per edge of the plan's stage graph;
// replicated stages pay ring-all_reduce weight synchronization. The
// policies reproduce PipeDream's 1F1B(-RR) — traditional model
// parallelism is its depth-1 table — and GPipe's microbatch-flush
// pipeline, so every timeline and throughput figure in the paper can be
// regenerated from the same machinery.
package cluster

import (
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

// event is one arc reaching its node at time; an arc that crosses a link
// first becomes ready for it (link ≥ 0) and queues there.
type event struct {
	time float64
	seq  int // tiebreaker for determinism
	from int // the arc's source node
	to   int // its target node
	link int // the link to queue for, or -1 once the arc has arrived
}

func (e event) before(f event) bool { return e.time < f.time || e.time == f.time && e.seq < f.seq }

// eventHeap is a binary min-heap of events in (time, seq) order.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	for i := len(*h) - 1; i > 0 && (*h)[i].before((*h)[(i-1)/2]); i = (i - 1) / 2 {
		(*h)[i], (*h)[(i-1)/2] = (*h)[(i-1)/2], (*h)[i]
	}
}

func (h *eventHeap) pop() event {
	old := *h
	e, n := old[0], len(old)-1
	old[0], *h = old[n], old[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && old[c+1].before(old[c]) {
			c++
		}
		if c >= n || !old[c].before(old[i]) {
			return e
		}
		old[i], old[c] = old[c], old[i]
		i = c
	}
}

// stageInfo caches per-stage quantities derived from the profile.
type stageInfo struct {
	spec         partition.StageSpec
	fwdTime      float64
	bwdTime      float64
	actOutB      int64 // activation bytes leaving the stage
	syncTime     float64
	syncBytes    int64
	bwdParamTime float64 // the part of bwdTime after the upstream gradient left
}

// link is one edge of the plan's stage graph, carrying both directions to
// and from every replica of either stage: the link partition's edgeTime
// prices at 2·P2PTime per minibatch. It serves transfers in ready order,
// each holding it for time. The ring all_reduce is a sync arc instead:
// the planner prices sync and edges apart, and ring peers are replicas of
// one stage, edge peers workers of adjacent stages, so the runtime never
// puts both on one TCP connection either.
type link struct {
	from int     // stage
	time float64 // P2PTime of from's output activation: one transfer's hold
	free float64 // when the link has sent every transfer it accepted
}

// sim runs the plan's schedule.EventGraph: an op starts once every arc
// into it has arrived, and no sooner than its sync arcs allow. An arc
// arrives when its source ends (order, loss), when its transfer leaves
// the link (activation, gradient: the gradient is sent as the backward's
// input half ends) or when the flush's longest all_reduce after it ends;
// a sync arc holds the next backward until the replica's all_reduce ends
// (wait-free backprop: nothing else waits for it).
type sim struct {
	cfg     Config
	assign  *schedule.Assignment
	graph   *schedule.EventGraph
	stages  []stageInfo
	links   []link
	pending []int     // per node: arcs into it that have not arrived
	floor   []float64 // per node: when its sync arcs let it start
	flush   float64   // GPipe: the longest stage all_reduce
	h       eventHeap
	seq     int
	now     float64
	end     float64 // when the last op (or GPipe flush) ended

	complTimes []float64
	timeline   *schedule.Timeline
	// stash is each worker's in-flight minibatches with stashed state.
	stash, peakStash []int

	p2pBytes, syncBytes int64
	transfers           []schedule.Op
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
	if err := cfg.Plan.Graph.Validate(len(cfg.Plan.Stages)); err != nil {
		return err
	}
	g, err := schedule.Graph(s.assign, cfg.Policy, 0, cfg.Minibatches)
	if err != nil {
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
		s.flush = max(s.flush, info.syncTime)
		s.stages = append(s.stages, info)
	}
	for _, e := range cfg.Plan.Graph.Edges {
		span := cfg.Plan.Stages[e.From].Replicas + cfg.Plan.Stages[e.To].Replicas
		s.links = append(s.links, link{from: e.From, time: cfg.Topo.P2PTime(s.stages[e.From].actOutB, span)})
	}
	s.graph = g
	s.pending, s.floor = make([]int, len(g.Nodes)), make([]float64, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, a := range n.Out {
			if a.Class != partition.SyncArc {
				s.pending[a.To]++
			}
		}
	}
	workers := s.assign.NumWorkers()
	s.stash, s.peakStash = make([]int, workers), make([]int, workers)
	if cfg.RecordTimeline {
		s.timeline = &schedule.Timeline{Workers: workers}
	}
	s.complTimes = make([]float64, cfg.Minibatches)
	// Kick off: the input workers' first forwards wait for nothing.
	for v, p := range s.pending {
		if p == 0 {
			s.start(v)
		}
	}
	return nil
}

// post schedules arc a of node from to reach its target at t, or, if it
// crosses a link, to queue for it at t.
func (s *sim) post(t float64, from int, a schedule.Arc) {
	link := -1
	if a.Class == partition.ActivationArc || a.Class == partition.GradientArc {
		link = a.Edge
		s.p2pBytes += s.stages[s.links[link].from].actOutB
	}
	s.seq++
	s.h.push(event{time: t, seq: s.seq, from: from, to: a.To, link: link})
}

func (s *sim) run() {
	for len(s.h) > 0 {
		e := s.h.pop()
		s.now = e.time
		if e.link >= 0 {
			l := &s.links[e.link]
			start := max(s.now, l.free)
			l.free = start + l.time
			if s.timeline != nil {
				n := s.graph.Nodes[e.from]
				s.transfers = append(s.transfers, schedule.Op{Worker: n.Worker, Stage: n.Stage,
					Minibatch: n.Minibatch, Kind: schedule.TransferOp, Start: start, End: l.free})
			}
			e.link = -1
			s.seq++
			e.time, e.seq = l.free, s.seq
			s.h.push(e)
			continue
		}
		if s.pending[e.to]--; s.pending[e.to] == 0 {
			s.start(e.to)
		}
	}
}

// start runs node v from now (or its sync floor) and posts its out-arcs.
func (s *sim) start(v int) {
	n := &s.graph.Nodes[v]
	info := &s.stages[n.Stage]
	start, t := max(s.now, s.floor[v]), info.fwdTime
	if n.Kind == schedule.Backward {
		t = info.bwdTime
	}
	end := start + t
	s.end = max(s.end, end)
	s.record(n.Worker, n.Stage, n.Minibatch, n.Kind, start, end)
	gpipe := s.cfg.Policy == schedule.GPipe
	if n.Kind == schedule.Forward {
		s.stash[n.Worker]++
		s.peakStash[n.Worker] = max(s.peakStash[n.Worker], s.stash[n.Worker])
	} else {
		s.stash[n.Worker] = max(0, s.stash[n.Worker]-1)
		if n.Stage == 0 {
			s.complTimes[n.Minibatch] = end
		}
		// A replicated stage all_reduces after every backward under 1F1B;
		// under GPipe after a worker's last backward of a round (the next
		// op is a forward, or none), once per round.
		if info.syncTime > 0 && (!gpipe || v+1 == len(s.graph.Nodes) || s.graph.Nodes[v+1].Worker != n.Worker ||
			s.graph.Nodes[v+1].Kind == schedule.Forward) {
			s.record(n.Worker, n.Stage, n.Minibatch, schedule.SyncOp, end, end+info.syncTime)
			s.syncBytes += info.syncBytes / int64(info.spec.Replicas)
			if gpipe {
				s.end = max(s.end, end+info.syncTime)
			}
		}
	}
	for _, a := range n.Out {
		switch a.Class {
		case partition.ActivationArc, partition.LossArc, partition.OrderArc:
			s.post(end, v, a)
		case partition.GradientArc:
			s.post(end-info.bwdParamTime, v, a)
		case partition.SyncArc:
			s.floor[a.To] = end + info.syncTime
		case partition.FlushArc:
			s.post(end+s.flush, v, a)
		}
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
		TotalTime:       s.end,
		CompletionTimes: s.complTimes,
	}
	// Steady-state throughput: completions after warm-up (2× pipeline
	// depth, capped at half the run), counted in time order, not by
	// minibatch: below a replicated plan's depth the input replicas'
	// minibatches can drift apart, and one replica's alone misread the
	// run's rate (up to 1.6× on random plans).
	inputs, depth := max(1, len(s.assign.StageWorkers[0])), s.cfg.Plan.Depth
	warm := min(2*depth*inputs, s.cfg.Minibatches/2)
	done := slices.Sorted(slices.Values(s.complTimes))
	if s.cfg.Policy == schedule.GPipe {
		// GPipe completions bunch at flush boundaries; measure whole
		// rounds (round-aligned warm-up through the final flush) or the
		// per-round rate is misread.
		warm = ((warm + depth - 1) / depth) * depth
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
	if r.Throughput == 0 && s.end > 0 {
		r.Throughput = float64(s.cfg.Minibatches) * float64(s.cfg.Profile.MinibatchSize) / s.end
	}
	r.PeakMemory = make([]int64, len(s.peakStash))
	for w, peak := range s.peakStash {
		r.PeakMemory[w] = partition.WorkerMemory(s.cfg.Profile, s.stages[s.assign.Workers[w].Stage].spec, peak,
			s.cfg.Policy == schedule.GPipe, false)
	}
	r.P2PBytes = s.p2pBytes
	r.SyncBytes = s.syncBytes
	if s.timeline != nil {
		s.timeline.Horizon = s.end
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
