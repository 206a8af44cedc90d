// Package partition implements PipeDream's automatic work-partitioning
// algorithm (§3.1 of the paper): an exact search that splits a profiled
// model's layers into pipeline stages — possibly replicated with data
// parallelism — so that the slowest stage is as fast as possible,
// accounting for activation/gradient transfers between stages and
// all_reduce weight synchronization within replicated stages, each priced
// over the links of the machine topology the workers span.
package partition

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pipedream/internal/nn"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// StageSpec is one pipeline stage in a flattened plan: a consecutive,
// inclusive range of model layers and the number of workers replicating
// the stage.
type StageSpec struct {
	FirstLayer, LastLayer int
	Replicas              int
}

// Plan is a complete pipeline-parallel configuration for a model on a
// topology, with the optimizer's throughput prediction.
type Plan struct {
	Model  string
	Stages []StageSpec
	// Workers is the number of workers the stages use, the sum of their
	// Replicas. The optimizer may leave some of the topology's workers
	// idle, so it can be below the topology's TotalWorkers.
	Workers int

	// Graph is the stage dataflow: NewLinear(len(Stages)) for the
	// classic PipeDream chain 0→1→…→n-1, arbitrary DAG edges otherwise.
	// NewPlan and ReadJSON always set it, and a Plan literal must too.
	// It is shared; readers must not mutate it.
	Graph *StageGraph

	// StageTimes[i] is the effective per-minibatch time of stage i
	// (compute and weight-sync, amortized over replicas).
	StageTimes []float64
	// CommTimes[i] is the activation+gradient transfer time of the
	// dataflow edge Graph.Edges[i] (for a linear plan: between stage i
	// and stage i+1).
	CommTimes []float64
	// BottleneckTime is the slowest pipeline element's time per
	// minibatch; with every 1F1B cycle covered, steady-state throughput
	// is MinibatchSize/BottleneckTime.
	BottleneckTime float64
	// PredictedThroughput is samples/second in steady state at the plan's
	// windows: MinibatchSize over the longer of BottleneckTime and the
	// period of the 1F1B order schedule.Table runs (price).
	PredictedThroughput float64
	// Depth is the number of in-flight minibatches per input-stage
	// replica the plan runs at: the schedule's warm-up, the simulator's
	// and the runtime's in-flight bound, and the stash count CheckMemory
	// prices. NewPlan sets it to the input window per replica (Windows),
	// PlanOptions.Memory lowers it until the stages fit (§3.3); a caller
	// that wants another asks AtDepth.
	Depth int
	// windows are a plan file's, for Windows while Depth is the file's.
	windows []int
	// samples is the profile's MinibatchSize and costs each stage's
	// passes, for price.
	samples float64
	costs   []stageCost
}

// AtDepth returns a copy of the plan run at d ≥ 1 minibatches in flight
// per input replica, priced at the windows that depth gives. It is the
// one way to change a plan's depth.
func (p *Plan) AtDepth(d int) *Plan {
	q := *p
	q.Depth = d
	q.price()
	return &q
}

// price sets PredictedThroughput at the plan's windows: MinibatchSize over
// the longer of BottleneckTime and the period of schedule.Table's 1F1B
// order, the largest Σ t ÷ Σ d over the cycles of eventGraph.
func (p *Plan) price() {
	n, arcs := p.eventGraph(p.Windows())
	period := maxCycleRatio(n, arcs, 1e-9*p.BottleneckTime)
	if period < p.BottleneckTime*(1+1e-9) { // a stage's own cycle, but for rounding
		period = p.BottleneckTime
	}
	p.PredictedThroughput = p.samples / period
}

// GPipeThroughput is the plan's price under GPipe (§2.2, §5.4), a flush
// every Depth microbatches: MinibatchSize over eventGraph(nil)'s largest
// Σ t ÷ Σ d. Backward passes that include their forwards price GPipe's
// recomputation. A transfer waits its link time but in no queue, so a plan
// whose links are busy simulates below it.
func (p *Plan) GPipeThroughput() float64 {
	n, arcs := p.eventGraph(nil)
	return p.samples / maxCycleRatio(n, arcs, 1e-9*p.BottleneckTime)
}

// eventGraph is price's graph, Arcs folded modulo the lcm L of the replica
// counts, and of Depth under GPipe, whose rounds it then aligns; node
// (s·L + m)·2 + b is pass b of minibatch m at stage s.
func (p *Plan) eventGraph(window []int) (int, []arc) {
	lcm := 1
	if window == nil {
		lcm = p.Depth
	}
	for _, st := range p.Stages {
		for step := lcm; lcm%st.Replicas != 0; lcm += step {
		}
	}
	n := 2 * len(p.Stages) * lcm
	var arcs []arc
	var out []Arc
	for v := range n {
		m := v / 2 % lcm
		out = p.Arcs(window, v/2/lcm, v%2, m, out[:0])
		for _, a := range out {
			arcs = append(arcs, arc{v, (a.Stage*lcm+((m+a.D)%lcm+lcm)%lcm)*2 + a.Pass, a.T, float64(a.D)})
		}
	}
	return n, arcs
}

// ArcClass says why one pass of the 1F1B schedule waits for another.
type ArcClass int

// Arc classes; the simulator times each class its own way.
const (
	// OrderArc: consecutive ops of one worker's schedule.Table list.
	OrderArc ArcClass = iota
	// ActivationArc and GradientArc: a forward to the same minibatch's
	// forward, and a backward to its backward, at the routed replica of
	// the stage at the other end of a plan edge.
	ActivationArc
	GradientArc
	// LossArc: a sink's forward to its backward of the same minibatch.
	LossArc
	// SyncArc: under 1F1B, a replica's backward to its next backward,
	// which reuses the gradient buffers the first one's all_reduce reads.
	SyncArc
	// FlushArc: under GPipe, every input-stage backward of round r to each
	// input worker's first forward of round r+1.
	FlushArc
)

var arcNames = [...]string{"order", "activation", "gradient", "loss", "sync", "flush"}

// String implements fmt.Stringer.
func (c ArcClass) String() string { return arcNames[c] }

// Arc is a precedence Arcs appends for a pass of minibatch m: pass Pass
// (0 forward, 1 backward) of minibatch m+D at stage Stage starts no sooner
// than T after that pass starts. Edge indexes Graph.Edges for activation
// and gradient arcs, and is -1 otherwise.
type Arc struct {
	Stage, Pass, D, Edge int
	Class                ArcClass
	T                    float64
}

// Arcs appends to out the precedences (§3.2, Fig. 8) out of pass (0
// forward, 1 backward) of minibatch m at stage s, in this order: over each
// edge s→q, in edge order, the activation F_s(m) → F_q(m), or over each
// edge q→s the gradient B_s(m) → B_q(m), sent as their half of the pass
// ends; a sink's loss F_s(m) → B_s(m); the replica's order. Under 1F1B at
// the stage windows window, that is B_s(m) → F_s(m+k·R_s) → B_s(m+R_s)
// after k = WarmUp forwards, and a replicated stage's ring sync B_s(m) →
// B_s(m+R_s). Under GPipe (nil window), rounds of Depth minibatches from a
// multiple of Depth run forwards ascending, then backwards descending, and
// an input-stage backward flushes, after the longest sync, to each input
// replica's first forward of the next round.
func (p *Plan) Arcs(window []int, s, pass, m int, out []Arc) []Arc {
	c, r, lo := p.costs[s], p.Stages[s].Replicas, len(out)
	for i, e := range p.Graph.Edges {
		if pass == 0 && e.From == s {
			out = append(out, Arc{e.To, 0, 0, i, ActivationArc, c.fwd + p.CommTimes[i]/2})
		} else if pass == 1 && e.To == s {
			out = append(out, Arc{e.From, 1, 0, i, GradientArc, c.bwdIn + p.CommTimes[i]/2})
		}
	}
	if pass == 0 && len(out) == lo { // a sink
		out = append(out, Arc{s, 1, 0, -1, LossArc, c.fwd})
	}
	if window == nil {
		next := (m/p.Depth + 1) * p.Depth // the next round's first minibatch
		switch {
		case pass == 0 && m+r < next:
			return append(out, Arc{s, 0, r, -1, OrderArc, c.fwd})
		case pass == 0:
			return append(out, Arc{s, 1, 0, -1, OrderArc, c.fwd})
		case m-r >= next-p.Depth:
			out = append(out, Arc{s, 1, -r, -1, OrderArc, c.bwd})
		default:
			out = append(out, Arc{s, 0, (next - m + r - 1) / r * r, -1, OrderArc, c.bwd})
		}
		if s == 0 {
			sync := 0.0
			for _, q := range p.costs {
				sync = max(sync, q.sync)
			}
			for f := next; f < next+min(r, p.Depth); f++ {
				out = append(out, Arc{0, 0, f - m, -1, FlushArc, c.bwd + sync})
			}
		}
		return out
	}
	k := WarmUp(window[s], r, m%r)
	if pass == 0 {
		return append(out, Arc{s, 1, r - k*r, -1, OrderArc, c.fwd})
	}
	out = append(out, Arc{s, 0, k * r, -1, OrderArc, c.bwd})
	if r > 1 {
		out = append(out, Arc{s, 1, r, -1, SyncArc, c.bwd + c.sync})
	}
	return out
}

// arc is one of price's precedences: pass to starts no sooner than t after
// pass from, d minibatches on.
type arc struct {
	from, to int
	t, d     float64
}

// maxCycleRatio is the largest Σ t ÷ Σ d over the cycles of a graph of n
// nodes, each with an out-arc, whose every cycle has a positive Σ d, by
// Howard's policy iteration: each node follows one arc; each cycle of
// those gives the nodes reaching it its ratio (eta) and, at that ratio, a
// potential (x); nodes then switch to arcs towards a higher ratio or,
// where no node has one, a higher potential, until none does by tol.
func maxCycleRatio(n int, arcs []arc, tol float64) float64 {
	policy, eta, x, walk := make([]arc, n), make([]float64, n), make([]float64, n), 0
	mark, path := make([]int, n), make([]int, 0, n) // path: one walk's nodes
	for _, a := range arcs {
		policy[a.from] = a
	}
	for {
		start := walk // marks above start were set in this pass
		for v := range n {
			path = path[:0]
			for walk++; mark[v] <= start; v = policy[v].to {
				mark[v], path = walk, append(path, v)
			}
			if mark[v] == walk { // the path closed a new cycle at v
				t, d := policy[v].t, policy[v].d
				for u := policy[v].to; u != v; u = policy[u].to {
					t, d = t+policy[u].t, d+policy[u].d
				}
				eta[v], x[v] = t/d, 0
			}
			for i := len(path) - 1; i >= 0; i-- {
				if u, a := path[i], policy[path[i]]; u != v {
					eta[u], x[u] = eta[a.to], a.t-eta[a.to]*a.d+x[a.to]
				}
			}
		}
		improved := false
		for potential := 0; potential < 2 && !improved; potential++ {
			for _, a := range arcs {
				if u, e := a.from, eta[a.to]; e > eta[u]+tol || potential == 1 && e >= eta[u]-tol && a.t-eta[u]*a.d+x[a.to] > x[u]+tol {
					policy[u], improved = a, true
				}
			}
		}
		if !improved {
			return slices.Max(eta)
		}
	}
}

// StageSlices cuts model into the plan's stages — one Sequential per
// stage, sharing the model's layers — after checking that the stages end
// at the model's last layer. A nil plan is one stage holding the whole
// model.
func (p *Plan) StageSlices(model *nn.Sequential) ([]*nn.Sequential, error) {
	if p == nil {
		return []*nn.Sequential{model}, nil
	}
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("plan has no stages")
	}
	if last := p.Stages[len(p.Stages)-1].LastLayer; last != len(model.Layers)-1 {
		return nil, fmt.Errorf("plan covers %d layers, model has %d", last+1, len(model.Layers))
	}
	stages := make([]*nn.Sequential, len(p.Stages))
	for i, spec := range p.Stages {
		stages[i] = model.Slice(spec.FirstLayer, spec.LastLayer+1)
	}
	return stages, nil
}

// IsDataParallel reports whether the plan is a single stage replicated
// over every worker — vanilla data parallelism.
func (p *Plan) IsDataParallel() bool {
	return len(p.Stages) == 1 && p.Stages[0].Replicas == p.Workers
}

// IsStraight reports whether the plan is a pipeline with no replication.
func (p *Plan) IsStraight() bool {
	for _, s := range p.Stages {
		if s.Replicas != 1 {
			return false
		}
	}
	return len(p.Stages) > 1
}

// ConfigString renders the paper's config notation, e.g. "15-1" or
// "Straight". Graph-shaped plans append the edge list so the topology
// round-trips through the string, e.g. "1-1-1-1 dag(0>1,0>2,1>2:sum)".
func (p *Plan) ConfigString() string {
	replicas := make([]string, len(p.Stages))
	for i, st := range p.Stages {
		replicas[i] = fmt.Sprint(st.Replicas)
	}
	s := strings.Join(replicas, "-")
	switch {
	case !p.Graph.IsLinear():
		return fmt.Sprintf("%s dag(%s)", s, p.Graph)
	case p.IsDataParallel():
		return fmt.Sprintf("%d (DP)", p.Workers)
	case p.IsStraight():
		return "Straight"
	}
	return s
}

// String summarizes the plan, with its stage windows.
func (p *Plan) String() string {
	return fmt.Sprintf("%s on %d workers: %s, bottleneck %.3gs, %.4g samples/s, depth %d, %s",
		p.Model, p.Workers, p.ConfigString(), p.BottleneckTime, p.PredictedThroughput, p.Depth, p.WindowString())
}

// WindowString renders the stage windows and staleness, ⌈window/replicas⌉ − 1.
func (p *Plan) WindowString() string {
	windows, stale := p.Windows(), make([]int, len(p.Stages))
	for s, w := range windows {
		stale[s] = (w+p.Stages[s].Replicas-1)/p.Stages[s].Replicas - 1
	}
	return fmt.Sprintf("windows %v, staleness %v", windows, stale)
}

// SyncModel names the gradient collective the optimizer charges
// replicated stages for.
//
// Deprecated: the only value is SyncRing, the zero value; the type is
// kept for the benchmark harness, which still names it.
type SyncModel int

// SyncRing is the chunked overlapped ring collective, the one the runtime
// runs (see topology.AllReduceTime for its price).
//
// Deprecated: the only value of SyncModel.
const SyncRing SyncModel = 0

// optimize is the partitioner (§3.1): an exact search over every chain of
// contiguous stages, each replicated over any number of workers and the
// chain using at most every worker, for the least BottleneckTime
// evaluate gives. Ties go to the fewest stages, then the most workers: a
// worker is left idle only when that is strictly cheaper.
//
// Under evaluate a stage's price depends only on its layers and replica
// count, and an edge's only on the layer it leaves and the replica counts
// of the stages it joins, so the best chain over layers [0..j] whose last
// stage has r replicas and which uses m workers extends as a unit: search
// keeps one per (j, r, m). Its first pass finds the least bottleneck, its
// second the fewest stages among chains no slower than that.
func optimize(prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	best, _ := search(prof, topo, 0)
	_, stages := search(prof, topo, best)
	return evaluate(prof, topo, stages, nil)
}

// chain is the search's best chain of stages ending at some layer j with r
// replicas in its last stage and m workers in all.
type chain struct {
	// cost is the chain's bottleneck, raised to the search's floor.
	cost   float64
	stages int
	// prevLast and prevR are the previous stage's last layer and replica
	// count; prevLast is -1 for a one-stage chain.
	prevLast, prevR int
}

// shorter reports whether c beats d: a lower cost, or as low in fewer
// stages.
func (c chain) shorter(d chain) bool {
	return c.cost < d.cost || c.cost == d.cost && c.stages < d.stages
}

// search returns the cheapest chain over all layers, by the tie rule
// optimize states, with every price below floor read as floor: at floor 0
// it finds the least bottleneck, at that bottleneck the fewest stages that
// reach it.
func search(prof *profile.ModelProfile, topo *topology.Topology, floor float64) (float64, []StageSpec) {
	n, w := prof.NumLayers(), topo.TotalWorkers()
	at := func(j, m, r int) int { return (j*(w+1)+m)*(w+1) + r }
	best := make([]chain, n*(w+1)*(w+1))
	for k := range best {
		best[k].cost = math.Inf(1)
	}
	for j := 0; j < n; j++ {
		for r := 1; r <= w; r++ {
			st, _ := stageTime(prof, topo, StageSpec{0, j, r})
			best[at(j, r, r)] = chain{cost: max(floor, st), stages: 1, prevLast: -1}
		}
	}
	// No chain costlier than the floor, or than the whole model as one
	// stage, can win; and a stage only gets slower as it takes more layers.
	limit := floor
	if limit == 0 {
		limit = math.Inf(1)
		for r := 1; r <= w; r++ {
			limit = min(limit, best[at(n-1, r, r)].cost)
		}
	}
	edge := make([]float64, w+1)
	feed := make([]chain, w+1)
	// Extend every chain ending at layer i by one stage starting at i+1.
	// The edge half — the chain on m-r workers followed by the edge into
	// a stage of r replicas — does not depend on where that stage ends, so
	// feed[m] holds its best for all of them.
	for i := 0; i < n-1; i++ {
		for span := 2; span <= w; span++ {
			edge[span] = edgeTime(prof, topo, i, span)
		}
		for r := 1; r < w; r++ {
			if st, _ := stageTime(prof, topo, StageSpec{i + 1, i + 1, r}); st > limit {
				continue
			}
			for m := r + 1; m <= w; m++ {
				f := chain{cost: math.Inf(1)}
				for pr := 1; pr <= m-r; pr++ {
					c := best[at(i, m-r, pr)]
					if c.cost = max(c.cost, edge[pr+r]); c.shorter(f) {
						f = chain{c.cost, c.stages, i, pr}
					}
				}
				f.stages++
				feed[m] = f
			}
			for j := i + 1; j < n; j++ {
				st, _ := stageTime(prof, topo, StageSpec{i + 1, j, r})
				if st > limit {
					break
				}
				for m := r + 1; m <= w; m++ {
					c := feed[m]
					c.cost = max(c.cost, st)
					if c.shorter(best[at(j, m, r)]) {
						best[at(j, m, r)] = c
					}
				}
			}
		}
	}
	// The cheapest chain over every layer; of equals, the one on the most
	// workers.
	top, r, m := chain{cost: math.Inf(1)}, 0, 0
	for mm := 1; mm <= w; mm++ {
		for rr := 1; rr <= mm; rr++ {
			if c := best[at(n-1, mm, rr)]; c.shorter(top) || !top.shorter(c) && mm > m {
				top, r, m = c, rr, mm
			}
		}
	}
	var stages []StageSpec
	for j := n - 1; ; {
		c := best[at(j, m, r)]
		stages = append(stages, StageSpec{FirstLayer: c.prevLast + 1, LastLayer: j, Replicas: r})
		if c.prevLast < 0 {
			break
		}
		j, r, m = c.prevLast, c.prevR, m-r
	}
	slices.Reverse(stages)
	return top.cost, stages
}

// DataParallel returns the vanilla-DP plan: one stage over all layers
// replicated across every worker.
func DataParallel(prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	return NewPlan(prof, topo, PlanOptions{Stages: []StageSpec{
		{FirstLayer: 0, LastLayer: prof.NumLayers() - 1, Replicas: topo.TotalWorkers()},
	}})
}

// ModelParallel returns a straight pipeline with one stage per worker,
// balancing compute time greedily — the baseline of Figure 2/14a.
func ModelParallel(prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	workers := topo.TotalWorkers()
	n := prof.NumLayers()
	if workers > n {
		workers = n
	}
	stages := BalanceStages(prof, workers, 1)
	return NewPlan(prof, topo, PlanOptions{Stages: stages})
}

// BalanceStages splits layers into `stages` contiguous groups, the first
// replicated `replicas` times, minimizing the maximum group compute time
// with the first group's shared among its replicas (exact DP — small n).
func BalanceStages(prof *profile.ModelProfile, stages, replicas int) []StageSpec {
	n := prof.NumLayers()
	// dp[s][j]: minimal max-time splitting layers [0..j] into s+1 groups.
	dp := make([][]float64, stages)
	cut := make([][]int, stages)
	for s := range dp {
		dp[s] = make([]float64, n)
		cut[s] = make([]int, n)
		for j := range dp[s] {
			dp[s][j] = math.Inf(1)
		}
	}
	for j := 0; j < n; j++ {
		dp[0][j] = prof.TimeRange(0, j) / float64(replicas)
	}
	for s := 1; s < stages; s++ {
		for j := s; j < n; j++ {
			for c := s - 1; c < j; c++ {
				t := math.Max(dp[s-1][c], prof.TimeRange(c+1, j))
				if t < dp[s][j] {
					dp[s][j] = t
					cut[s][j] = c
				}
			}
		}
	}
	// Group s ends at j and starts after cut[s][j]; group 0 starts at 0.
	specs := make([]StageSpec, stages)
	for s, j := stages-1, n-1; s >= 0; s-- {
		first := 0
		if s > 0 {
			first = cut[s][j] + 1
		}
		specs[s] = StageSpec{FirstLayer: first, LastLayer: j, Replicas: 1}
		j = first - 1
	}
	specs[0].Replicas = replicas
	return specs
}

// evaluate prices an explicit stage assignment: each stage at stageTime,
// each dataflow edge at edgeTime, the bottleneck being the slowest of
// them. A nil graph asks for the linear chain, which the returned plan
// then carries.
func evaluate(prof *profile.ModelProfile, topo *topology.Topology, stages []StageSpec, graph *StageGraph) (*Plan, error) {
	if err := validateStages(prof, topo, stages); err != nil {
		return nil, err
	}
	if graph == nil {
		graph = NewLinear(len(stages))
	}
	if err := graph.Validate(len(stages)); err != nil {
		return nil, err
	}
	workers := 0
	for _, st := range stages {
		workers += st.Replicas
	}
	p := &Plan{
		Model:      prof.Model,
		Stages:     stages,
		Workers:    workers,
		Graph:      graph,
		StageTimes: make([]float64, len(stages)),
		CommTimes:  make([]float64, 0, len(stages)-1),
		costs:      make([]stageCost, len(stages)),
	}
	for i, st := range stages {
		p.StageTimes[i], p.costs[i] = stageTime(prof, topo, st)
		p.BottleneckTime = max(p.BottleneckTime, p.StageTimes[i])
		for _, l := range prof.Layers[st.FirstLayer : st.LastLayer+1] {
			p.costs[i].bwdIn -= l.BwdParamTime
		}
	}
	for _, e := range graph.Edges {
		ct := edgeTime(prof, topo, stages[e.From].LastLayer, stages[e.From].Replicas+stages[e.To].Replicas)
		p.CommTimes = append(p.CommTimes, ct)
		p.BottleneckTime = max(p.BottleneckTime, ct)
	}
	p.Depth = p.cover(p.BottleneckTime / windowSlack)[0] / stages[0].Replicas
	p.samples = float64(prof.MinibatchSize)
	p.price()
	return p, nil
}

// Noam returns NUM_OPT_ACTIVE_MINIBATCHES = ceil(workers / input-stage replicas),
// the paper's depth for even stages on free links; Windows sets a plan's.
func Noam(workers, inputReplicas int) int {
	return (workers + inputReplicas - 1) / inputReplicas
}

// stageCost is what one replica of a stage spends on a minibatch: its
// forward, the input half of its backward (until the upstream gradient
// leaves), its whole backward and its ring sync.
type stageCost struct{ fwd, bwdIn, bwd, sync float64 }

// stageTime is the per-minibatch time of a stage, and one replica's parts
// of it (bwdIn the whole bwd): each of its R replicas takes every
// R-th minibatch and spends bwd + max(fwd, sync) on it. The ring
// all_reduce of the stage's gradients starts when a backward ends and
// the next backward waits for it, so only the forward in between hides it
// — cluster.Simulate's steady state, not the runtime's: there a backward
// drains the ring and applies the update before the next forward starts.
// price's sync arc is the same choice.
func stageTime(prof *profile.ModelProfile, topo *topology.Topology, st StageSpec) (float64, stageCost) {
	fwd := prof.FwdRange(st.FirstLayer, st.LastLayer)
	bwd := prof.BwdRange(st.FirstLayer, st.LastLayer)
	sync := topo.AllReduceTime(prof.WeightRange(st.FirstLayer, st.LastLayer), st.Replicas)
	return (bwd + max(fwd, sync)) / float64(st.Replicas), stageCost{fwd, bwd, bwd, sync}
}

// edgeTime is the per-minibatch time of a dataflow edge leaving layer last:
// its output activation and the matching gradient, each over the link
// joining the two stages' worker groups, which together span span workers.
func edgeTime(prof *profile.ModelProfile, topo *topology.Topology, last, span int) float64 {
	return 2 * topo.P2PTime(prof.ActivationBytes(last), span)
}

func validateStages(prof *profile.ModelProfile, topo *topology.Topology, stages []StageSpec) error {
	if len(stages) == 0 {
		return fmt.Errorf("partition: empty stage list")
	}
	next := 0
	total := 0
	for i, st := range stages {
		if st.FirstLayer != next {
			return fmt.Errorf("partition: stage %d starts at layer %d, want %d", i, st.FirstLayer, next)
		}
		if st.LastLayer < st.FirstLayer || st.LastLayer >= prof.NumLayers() {
			return fmt.Errorf("partition: stage %d range [%d,%d] invalid", i, st.FirstLayer, st.LastLayer)
		}
		if st.Replicas < 1 {
			return fmt.Errorf("partition: stage %d has %d replicas", i, st.Replicas)
		}
		next = st.LastLayer + 1
		total += st.Replicas
	}
	if next != prof.NumLayers() {
		return fmt.Errorf("partition: stages cover %d of %d layers", next, prof.NumLayers())
	}
	if total > topo.TotalWorkers() {
		return fmt.Errorf("partition: stages use %d workers, topology has %d", total, topo.TotalWorkers())
	}
	return nil
}

// BruteForce finds the optimal plan by pricing every contiguous partition
// and replication assignment with evaluate, on any topology. Exponential —
// the reference the optimizer is tested against on small inputs.
func BruteForce(prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	n := prof.NumLayers()
	workers := topo.TotalWorkers()
	var best *Plan
	// Enumerate stage boundaries via bitmask over n-1 gaps.
	for mask := 0; mask < 1<<(n-1); mask++ {
		var stages []StageSpec
		first := 0
		for g := 0; g < n-1; g++ {
			if mask&(1<<g) != 0 {
				stages = append(stages, StageSpec{FirstLayer: first, LastLayer: g})
				first = g + 1
			}
		}
		stages = append(stages, StageSpec{FirstLayer: first, LastLayer: n - 1})
		if len(stages) > workers {
			continue
		}
		// Enumerate replica assignments summing to ≤ workers.
		var assign func(idx, left int)
		assign = func(idx, left int) {
			if idx == len(stages) {
				specs := make([]StageSpec, len(stages))
				copy(specs, stages)
				p, err := evaluate(prof, topo, specs, nil)
				if err != nil {
					return
				}
				if best == nil || p.BottleneckTime < best.BottleneckTime {
					best = p
				}
				return
			}
			maxR := left - (len(stages) - idx - 1)
			for r := 1; r <= maxR; r++ {
				stages[idx].Replicas = r
				assign(idx+1, left-r)
			}
		}
		assign(0, workers)
	}
	if best == nil {
		return nil, fmt.Errorf("partition: brute force found no feasible plan")
	}
	return best, nil
}
