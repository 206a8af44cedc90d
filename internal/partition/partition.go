// Package partition implements PipeDream's automatic work-partitioning
// algorithm (§3.1 of the paper): a hierarchical dynamic program that
// splits a profiled model's layers into pipeline stages — possibly
// replicated with data parallelism — so that the slowest stage is as fast
// as possible, accounting for activation/gradient transfers between stages
// and all_reduce weight synchronization within replicated stages, level by
// level through the machine topology.
package partition

import (
	"fmt"
	"math"

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
	// minibatch; steady-state throughput is MinibatchSize/BottleneckTime.
	BottleneckTime float64
	// PredictedThroughput is samples/second in steady state.
	PredictedThroughput float64
	// NOAM is the optimal number of in-flight minibatches (§3.2).
	NOAM int
	// Depth is the in-flight depth the plan should run at when it was
	// built under a memory constraint (PlanOptions.Memory); 0 means
	// "no constraint — run at NOAM".
	Depth int
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
	if g := p.Graph; !g.IsLinear() {
		s := ""
		for i, st := range p.Stages {
			if i > 0 {
				s += "-"
			}
			s += fmt.Sprintf("%d", st.Replicas)
		}
		return fmt.Sprintf("%s dag(%s)", s, g)
	}
	if p.IsDataParallel() {
		return fmt.Sprintf("%d (DP)", p.Workers)
	}
	if p.IsStraight() {
		return "Straight"
	}
	s := ""
	for i, st := range p.Stages {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", st.Replicas)
	}
	return s
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("%s on %d workers: %s, bottleneck %.3gs, %.4g samples/s, NOAM %d",
		p.Model, p.Workers, p.ConfigString(), p.BottleneckTime, p.PredictedThroughput, p.NOAM)
}

// dpChoice records how an A^k(i,j,m) entry was achieved for plan
// reconstruction.
type dpChoice struct {
	split  bool // true: sub-pipeline [i..s] with m-mp workers + stage [s+1..j] with mp
	s, mp  int
	single bool // true: whole range as one (replicated) stage at this level
	fewer  bool // true: the range on m-1 components, the m-th left idle
}

// levelTable holds A and choices for one topology level.
// Indexing: a[i][j][m] for layers i..j inclusive, m components (1-based).
type levelTable struct {
	width int
	a     [][][]float64
	ch    [][][]dpChoice
}

func newLevelTable(n, width int) *levelTable {
	t := &levelTable{width: width}
	t.a = make([][][]float64, n)
	t.ch = make([][][]dpChoice, n)
	for i := 0; i < n; i++ {
		t.a[i] = make([][]float64, n)
		t.ch[i] = make([][]dpChoice, n)
		for j := 0; j < n; j++ {
			t.a[i][j] = make([]float64, width+1)
			t.ch[i][j] = make([]dpChoice, width+1)
			for m := range t.a[i][j] {
				t.a[i][j][m] = math.Inf(1)
			}
		}
	}
	return t
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

// optimize is the hierarchical DP (§3.1): it considers every stage
// boundary and replication factor at every level of the topology, then
// flattens nested replication into the paper's "r1-r2-..." configuration
// notation.
func optimize(prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	tables := solve(prof, topo)
	k := len(tables) - 1
	stages := reconstruct(tables, k, 0, prof.NumLayers()-1, tables[k].width, 1)
	return evaluate(prof, topo, stages, nil)
}

// solve fills the DP tables, tables[0] being the single device and
// tables[k] topology level k-1.
//
// A^k(i,j,m) is the best bottleneck of layers [i..j] on m components of
// topology level l = k-1, and may leave components idle. Its stage and
// edge prices are the paper's: a stage replicated over m components costs
// max(A^{k-1}, RingTime(l, w, m))/m and an edge 2·LinkTime(l, a). evaluate
// prices the plan reconstruct returns by group size instead, through
// AllReduceTime and P2PTime. On one level the two are the same number, and
// so they are for any plan that takes no split or replication above the
// innermost level. Above it they differ in two terms:
//
//	(a) outer-level replication: the table charges max(A^{k-1}, ring_l)/m,
//	    where A^{k-1} may itself be replicated; evaluate charges
//	    max(compute, Σ phases)/R over the stage's final replica count R.
//	(b) outer-level splits: the table charges the edge at level l's link;
//	    evaluate charges the link of the level R_from + R_to workers span,
//	    which may be an inner, faster one.
//
// TestTableValueMatchesEvaluate asserts the equality and logs the gap.
func solve(prof *profile.ModelProfile, topo *topology.Topology) []*levelTable {
	n := prof.NumLayers()
	prev := newLevelTable(n, 1)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			prev.a[i][j][1] = prof.TimeRange(i, j)
			prev.ch[i][j][1] = dpChoice{single: true}
		}
	}
	tables := []*levelTable{prev}

	for li, lvl := range topo.Levels {
		cur := newLevelTable(n, lvl.Width)
		prevWidth := prev.width
		// Each of m replicas sustains one minibatch per max(compute,
		// sync): the ring overlaps the next minibatch's compute.
		replicated := func(compute float64, w int64, m int) float64 {
			return math.Max(compute, topo.RingTime(li, w, m)) / float64(m)
		}
		for span := 0; span < n; span++ {
			for i := 0; i+span < n; i++ {
				j := i + span
				// m = 1: one component of the previous level.
				cur.a[i][j][1] = prev.a[i][j][prevWidth]
				cur.ch[i][j][1] = dpChoice{}
				for m := 2; m <= lvl.Width; m++ {
					// Option 1: whole range as a single stage
					// replicated over all m components.
					best := replicated(prev.a[i][j][prevWidth], prof.WeightRange(i, j), m)
					bestCh := dpChoice{single: true}
					// Option 2: split into an optimal sub-pipeline
					// [i..s] on m-mp components followed by one stage
					// [s+1..j] replicated over mp components.
					for s := i; s < j; s++ {
						comm := 2 * topo.LinkTime(li, prof.ActivationBytes(s))
						for mp := 1; mp < m; mp++ {
							tStage := replicated(prev.a[s+1][j][prevWidth], prof.WeightRange(s+1, j), mp)
							t := math.Max(cur.a[i][s][m-mp], math.Max(comm, tStage))
							if t < best {
								best = t
								bestCh = dpChoice{split: true, s: s, mp: mp}
							}
						}
					}
					// Option 3: leave a component idle, when that is
					// strictly cheaper.
					if cur.a[i][j][m-1] < best {
						best, bestCh = cur.a[i][j][m-1], dpChoice{fewer: true}
					}
					cur.a[i][j][m] = best
					cur.ch[i][j][m] = bestCh
				}
			}
		}
		tables = append(tables, cur)
		prev = cur
	}
	return tables
}

// reconstruct walks the DP choices at table level k (1-based into tables;
// tables[0] is the device level) for layers [i..j] on m components, with
// every resulting stage's replication multiplied by mult (the product of
// enclosing replication factors at higher levels).
func reconstruct(tables []*levelTable, k, i, j, m, mult int) []StageSpec {
	if k == 0 {
		return []StageSpec{{FirstLayer: i, LastLayer: j, Replicas: mult}}
	}
	if m == 1 {
		return reconstruct(tables, k-1, i, j, tables[k-1].width, mult)
	}
	ch := tables[k].ch[i][j][m]
	switch {
	case ch.fewer:
		return reconstruct(tables, k, i, j, m-1, mult)
	case ch.split:
		left := reconstruct(tables, k, i, ch.s, m-ch.mp, mult)
		right := reconstruct(tables, k-1, ch.s+1, j, tables[k-1].width, mult*ch.mp)
		return append(left, right...)
	}
	// Single stage over m components: the range is replicated m ways,
	// each replica being one level-(k-1) component solved recursively.
	return reconstruct(tables, k-1, i, j, tables[k-1].width, mult*m)
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
	stages := balanceStages(prof, workers)
	return NewPlan(prof, topo, PlanOptions{Stages: stages})
}

// balanceStages splits layers into `stages` contiguous groups minimizing
// the maximum group compute time (exact DP — small n).
func balanceStages(prof *profile.ModelProfile, stages int) []StageSpec {
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
		dp[0][j] = prof.TimeRange(0, j)
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
	bounds := make([]int, 0, stages)
	j := n - 1
	for s := stages - 1; s >= 1; s-- {
		bounds = append(bounds, cut[s][j])
		j = cut[s][j]
	}
	// bounds are in reverse order.
	specs := make([]StageSpec, 0, stages)
	first := 0
	for s := len(bounds) - 1; s >= 0; s-- {
		specs = append(specs, StageSpec{FirstLayer: first, LastLayer: bounds[s], Replicas: 1})
		first = bounds[s] + 1
	}
	specs = append(specs, StageSpec{FirstLayer: first, LastLayer: n - 1, Replicas: 1})
	return specs
}

// evaluate prices an explicit stage assignment: stage time =
// max(compute, AllReduceTime)/replicas, per-edge transfer time =
// 2·P2PTime(a_s), bottleneck = slowest element. A nil graph asks for the
// linear chain, which the returned plan then carries.
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
	}
	for i, st := range stages {
		compute := prof.TimeRange(st.FirstLayer, st.LastLayer)
		w := prof.WeightRange(st.FirstLayer, st.LastLayer)
		// Each replica sustains one minibatch per max(compute, sync): with
		// wait-free backpropagation, the ring all_reduce overlaps compute
		// of the next minibatch.
		p.StageTimes[i] = math.Max(compute, topo.AllReduceTime(w, st.Replicas)) / float64(st.Replicas)
		if p.StageTimes[i] > p.BottleneckTime {
			p.BottleneckTime = p.StageTimes[i]
		}
	}
	// Each dataflow edge prices the sender's output activation (and the
	// matching gradient on the way back) over the link joining the two
	// stages' worker groups.
	for _, e := range graph.Edges {
		span := stages[e.From].Replicas + stages[e.To].Replicas
		ct := 2 * topo.P2PTime(prof.ActivationBytes(stages[e.From].LastLayer), span)
		p.CommTimes = append(p.CommTimes, ct)
		if ct > p.BottleneckTime {
			p.BottleneckTime = ct
		}
	}
	p.PredictedThroughput = float64(prof.MinibatchSize) / p.BottleneckTime
	p.NOAM = (workers + stages[0].Replicas - 1) / stages[0].Replicas
	return p, nil
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

// BruteForce finds the optimal plan by enumerating every contiguous
// partition and replication assignment on a flat topology. Exponential —
// only for validating Optimize in tests on small inputs.
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
