package partition

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pipedream/internal/modelzoo"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// syntheticProfile builds a profile from raw per-layer (time, act, weight)
// triples.
func syntheticProfile(times []float64, acts, weights []int64) *profile.ModelProfile {
	p := &profile.ModelProfile{Model: "synthetic", MinibatchSize: 1}
	for i := range times {
		p.Layers = append(p.Layers, profile.LayerProfile{
			Name:            "l",
			FwdTime:         times[i] / 3,
			BwdTime:         times[i] * 2 / 3,
			ActivationBytes: acts[i],
			WeightBytes:     weights[i],
		})
	}
	return p
}

func TestOptimizeSingleWorkerIsOneStage(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1, 1}, []int64{8, 8, 8}, []int64{8, 8, 8})
	topo := topology.Flat(1, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 1 || plan.Stages[0].Replicas != 1 {
		t.Fatalf("plan = %+v, want single unreplicated stage", plan.Stages)
	}
	if math.Abs(plan.BottleneckTime-3) > 1e-9 {
		t.Fatalf("bottleneck %v, want 3", plan.BottleneckTime)
	}
}

func TestOptimizePrefersPipelineForHeavyWeights(t *testing.T) {
	// Two equal-compute layers with enormous weights and tiny activations:
	// data parallelism would drown in all_reduce, so the optimizer must
	// split into a straight 2-stage pipeline.
	prof := syntheticProfile(
		[]float64{1, 1},
		[]int64{4, 4},
		[]int64{4 << 30, 4 << 30},
	)
	topo := topology.Flat(2, 1e9, topology.V100) // 1 GB/s links
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsStraight() || len(plan.Stages) != 2 {
		t.Fatalf("plan %s, want 2-stage straight pipeline", plan.ConfigString())
	}
	if math.Abs(plan.BottleneckTime-1) > 1e-9 {
		t.Fatalf("bottleneck %v, want 1", plan.BottleneckTime)
	}
}

func TestOptimizePrefersDPForCompactWeights(t *testing.T) {
	// Tiny weights, huge activations between layers: splitting would pay
	// a huge transfer, so replicating everything (data parallelism) wins.
	prof := syntheticProfile(
		[]float64{1, 1},
		[]int64{1 << 30, 4},
		[]int64{1024, 1024},
	)
	topo := topology.Flat(2, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsDataParallel() {
		t.Fatalf("plan %s, want data parallel", plan.ConfigString())
	}
}

// Property: the search finds BruteForce's optimum exactly, on flat
// topologies and on two-level ones (up to 6 layers and 8 workers): both
// price a plan with evaluate.
func TestOptimizeMatchesBruteForceOnRandomProfiles(t *testing.T) {
	f := func(seed int64, twoLevel bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		times := make([]float64, n)
		acts := make([]int64, n)
		weights := make([]int64, n)
		for i := range times {
			times[i] = 0.1 + rng.Float64()
			acts[i] = int64(1 + rng.Intn(1<<20))
			weights[i] = int64(1 + rng.Intn(1<<24))
		}
		prof := syntheticProfile(times, acts, weights)
		workers := 2 + rng.Intn(3)
		topo := topology.Flat(workers, 1e8+rng.Float64()*1e9, topology.V100)
		for ; twoLevel; seed++ {
			if prof, topo = twoLevelCase(seed); prof.NumLayers() <= 6 && topo.TotalWorkers() <= 8 {
				break
			}
		}
		opt, err := NewPlan(prof, topo, PlanOptions{})
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		bf, err := BruteForce(prof, topo)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		if opt.BottleneckTime != bf.BottleneckTime {
			t.Logf("seed %d (two levels: %v): search %v (%s) vs brute force %v (%s)",
				seed, twoLevel, opt.BottleneckTime, opt.ConfigString(), bf.BottleneckTime, bf.ConfigString())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateRejectsBadStages(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1}, []int64{4, 4}, []int64{4, 4})
	topo := topology.Flat(2, 1e9, topology.V100)
	cases := [][]StageSpec{
		{},
		{{FirstLayer: 0, LastLayer: 0, Replicas: 1}},                                             // gap at end
		{{FirstLayer: 0, LastLayer: 1, Replicas: 3}},                                             // too many workers
		{{FirstLayer: 0, LastLayer: 1, Replicas: 0}},                                             // zero replicas
		{{FirstLayer: 1, LastLayer: 1, Replicas: 1}},                                             // missing start
		{{FirstLayer: 0, LastLayer: 1, Replicas: 1}, {FirstLayer: 1, LastLayer: 1, Replicas: 1}}, // overlap
	}
	for i, st := range cases {
		if _, err := NewPlan(prof, topo, PlanOptions{Stages: st}); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, st)
		}
	}
}

func TestEvaluateNOAM(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1, 1}, []int64{4, 4, 4}, []int64{4, 4, 4})
	topo := topology.Flat(3, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{Stages: []StageSpec{
		{FirstLayer: 0, LastLayer: 1, Replicas: 2},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Even stages on a free link: the windows give the paper's NOAM,
	// ceil(3 workers / 2 input replicas) = 2.
	if plan.Depth != 2 {
		t.Fatalf("depth = %d, want NOAM 2", plan.Depth)
	}
}

func TestModelParallelBalances(t *testing.T) {
	prof := syntheticProfile([]float64{4, 1, 1, 1, 1}, []int64{4, 4, 4, 4, 4}, []int64{4, 4, 4, 4, 4})
	topo := topology.Flat(2, 1e12, topology.V100)
	plan, err := ModelParallel(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(plan.Stages))
	}
	// Best split: [4] | [1,1,1,1] → bottleneck 4.
	if plan.Stages[0].LastLayer != 0 {
		t.Fatalf("split %+v, want first stage = layer 0 only", plan.Stages)
	}
}

func TestDataParallelPlanShape(t *testing.T) {
	prof := syntheticProfile([]float64{1, 2}, []int64{4, 4}, []int64{100, 100})
	topo := topology.Flat(4, 1e9, topology.V100)
	plan, err := DataParallel(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsDataParallel() || plan.Workers != 4 {
		t.Fatalf("plan %+v not data parallel over 4", plan)
	}
	if plan.Depth != 1 {
		t.Fatalf("DP depth = %d, want NOAM 1", plan.Depth)
	}
}

// Paper shape: on Cluster-A with 4x4 GPUs, VGG-16's optimizer output
// replicates the conv front heavily and leaves the dense tail on few
// workers (the paper reports 15-1); it must NOT pick data parallelism, and
// predicted throughput must beat DP's clearly.
func TestVGG16OnClusterAAvoidsDataParallelism(t *testing.T) {
	prof := modelzoo.VGG16(topology.V100, 64)
	topo := topology.ClusterA(4)
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsDataParallel() {
		t.Fatalf("VGG-16 plan is data parallel; paper reports 15-1")
	}
	dp, err := DataParallel(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	speedup := dp.BottleneckTime / plan.BottleneckTime
	if speedup < 2 {
		t.Fatalf("VGG-16 PipeDream speedup over DP = %.2f, want ≥2 (paper: ~5.3)", speedup)
	}
	// The input stage should be replicated far more than the output stage.
	first, last := plan.Stages[0], plan.Stages[len(plan.Stages)-1]
	if first.Replicas <= last.Replicas {
		t.Fatalf("config %s: conv front should be the replicated side", plan.ConfigString())
	}
}

// Paper shape: ResNet-50's compact conv weights make data parallelism
// optimal — the optimizer must return the DP config (Table 1: "16", 1×).
func TestResNet50OnClusterAPicksDataParallelism(t *testing.T) {
	prof := modelzoo.ResNet50(topology.V100, 128)
	topo := topology.ClusterA(4)
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DataParallel(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Either it literally picks DP, or its best plan is only marginally
	// better (paper reports 1× — no advantage; our analytic cost model
	// may find a sliver of headroom by splitting off the tiny FC tail,
	// but nothing like VGG-16's ~5×).
	if !plan.IsDataParallel() && dp.BottleneckTime/plan.BottleneckTime > 1.3 {
		t.Fatalf("ResNet-50 plan %s predicts %.2f× over DP; paper reports no gain",
			plan.ConfigString(), dp.BottleneckTime/plan.BottleneckTime)
	}
}

// Paper shape: GNMT-16 on Cluster-A 4 servers picks a straight pipeline.
func TestGNMT16OnClusterAPrefersPipeline(t *testing.T) {
	prof := modelzoo.GNMT16(topology.V100, 64)
	topo := topology.ClusterA(4)
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsDataParallel() {
		t.Fatal("GNMT-16 plan is data parallel; paper reports straight pipeline")
	}
	dp, err := DataParallel(prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if s := dp.BottleneckTime / plan.BottleneckTime; s < 1.3 {
		t.Fatalf("GNMT-16 speedup %.2f, want ≥1.3 (paper: ~2.9)", s)
	}
}

func TestOptimizerIsFast(t *testing.T) {
	// §5.5: optimizer runs in under 8 seconds for all models evaluated.
	// Ours must be far faster; this is a smoke bound, not a benchmark.
	for _, name := range modelzoo.Names() {
		prof, err := modelzoo.ByName(name, topology.V100, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPlan(prof, topology.ClusterB(4), PlanOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConfigString(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1, 1}, []int64{4, 4, 4}, []int64{4, 4, 4})
	topo := topology.Flat(4, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{Stages: []StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 2},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ConfigString(); got != "2-1-1" {
		t.Fatalf("ConfigString = %q, want 2-1-1", got)
	}
}

// twoLevelCase draws a random profile on a random two-level topology
// (up to 4 × 4 workers, the inner level shared or not).
func twoLevelCase(seed int64) (*profile.ModelProfile, *topology.Topology) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(8)
	times := make([]float64, n)
	acts := make([]int64, n)
	weights := make([]int64, n)
	for i := range times {
		times[i] = 0.01 + rng.Float64()
		acts[i] = int64(1 + rng.Intn(1<<24))
		weights[i] = int64(1 + rng.Intn(1<<28))
	}
	prof := syntheticProfile(times, acts, weights)
	inner := 1 + rng.Intn(4)
	outer := 1 + rng.Intn(4)
	return prof, &topology.Topology{
		Name:   "rand",
		Device: topology.V100,
		Levels: []topology.Level{
			{Width: inner, Bandwidth: 1e8 + rng.Float64()*1e10, Shared: rng.Intn(2) == 0},
			{Width: outer, Bandwidth: 1e7 + rng.Float64()*1e9},
		},
	}
}

// Property: on random hierarchical topologies, Optimize always returns a
// structurally valid plan — contiguous full layer coverage, worker budget
// respected, windows that cover every cycle at its depth — and is
// deterministic.
func TestOptimizeHierarchicalStructuralProperty(t *testing.T) {
	f := func(seed int64) bool {
		prof, topo := twoLevelCase(seed)
		n, workers := prof.NumLayers(), topo.TotalWorkers()
		p1, err := NewPlan(prof, topo, PlanOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p2, err := NewPlan(prof, topo, PlanOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Determinism.
		if p1.ConfigString() != p2.ConfigString() || p1.BottleneckTime != p2.BottleneckTime {
			t.Logf("seed %d: nondeterministic optimizer", seed)
			return false
		}
		// Structural validity (Evaluate re-validates, but assert the
		// essentials here explicitly).
		next, total := 0, 0
		for _, st := range p1.Stages {
			if st.FirstLayer != next || st.Replicas < 1 {
				return false
			}
			next = st.LastLayer + 1
			total += st.Replicas
		}
		if next != n || total > workers || p1.Depth < 1 {
			return false
		}
		return coversEveryCycle(t, p1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// coversEveryCycle reports whether a plan runs at the depth of its own
// windows, the input stage's per replica, and whether those windows hold
// what each cycle needs at the plan's bottleneck: every window a multiple
// of its stage's replicas, at least a successor's plus the rest of the
// stage's round, and at least the stage's, the edge's and the
// successor's passes in periods.
func coversEveryCycle(t *testing.T, p *Plan) bool {
	t.Helper()
	period := p.BottleneckTime / windowSlack
	w := p.Windows()
	if p.Depth*p.Stages[0].Replicas != w[0] {
		t.Logf("%s: depth %d, input window %d", p.ConfigString(), p.Depth, w[0])
		return false
	}
	for s, st := range p.Stages {
		if w[s] < st.Replicas || w[s]%st.Replicas != 0 {
			t.Logf("%s: stage %d window %d, %d replicas", p.ConfigString(), s, w[s], st.Replicas)
			return false
		}
	}
	op := func(s int) float64 { return p.StageTimes[s] * float64(p.Stages[s].Replicas) }
	for i, e := range p.Graph.Edges {
		s, q := e.From, e.To
		if w[s] < w[q]+p.Stages[s].Replicas-1 || float64(w[s])*period < op(s)+p.CommTimes[i]+op(q) {
			t.Logf("%s: windows %v do not cover edge %d→%d", p.ConfigString(), w, s, q)
			return false
		}
	}
	return true
}

// Property: the optimizer's plan is never worse (under the shared cost
// model) than both trivial baselines it generalizes, pure data parallelism
// and the best straight pipeline, on flat and two-level topologies: both
// are chains the search prices the way evaluate does.
func TestOptimizeDominatesBaselines(t *testing.T) {
	f := func(seed int64, twoLevel bool) bool {
		prof, topo := flatCase(seed)
		if twoLevel {
			prof, topo = twoLevelCase(seed)
		}
		opt, err := NewPlan(prof, topo, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := DataParallel(prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := ModelParallel(prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		if opt.BottleneckTime > dp.BottleneckTime || opt.BottleneckTime > mp.BottleneckTime {
			t.Logf("seed %d (two levels: %v): %s at %v, DataParallel %v, ModelParallel %s %v", seed, twoLevel,
				opt.ConfigString(), opt.BottleneckTime, dp.BottleneckTime, mp.ConfigString(), mp.BottleneckTime)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Ties go to the fewest stages, then the most workers.
func TestOptimizeTieRule(t *testing.T) {
	cases := []struct {
		name    string
		prof    *profile.ModelProfile
		workers int
		want    string
	}{
		// Two equal 3 s layers with little to sync or send: on two
		// workers data parallelism, (4 + max(2, ~0))/2, and the straight
		// split, max(3, 3, ~0), both take 3 s per minibatch.
		{"fewest stages", syntheticProfile([]float64{3, 3}, []int64{4, 4}, []int64{4, 4}), 2, "2 (DP)"},
		// A 6 s layer with 4 GiB of weights, which no replication pays
		// for at 0.1 GB/s, bounds every plan at 6 s; its 1 s tail fits
		// under that alone or replicated, and the third worker goes to
		// the tail.
		{"most workers", syntheticProfile([]float64{6, 1}, []int64{4, 4}, []int64{4 << 30, 4}), 3, "1-2"},
	}
	for _, c := range cases {
		plan, err := NewPlan(c.prof, topology.Flat(c.workers, 1e8, topology.V100), PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.ConfigString(); got != c.want {
			t.Errorf("%s: plan %v, want %s", c.name, plan, c.want)
		}
	}
}

// TestPriceIsTheTablesCycleRatio works the 1F1B event graph by hand on a
// 6 s and a 2 s layer (forward a third of each, backward the rest) with
// free links, at depth 1.
func TestPriceIsTheTablesCycleRatio(t *testing.T) {
	cases := []struct {
		name     string
		replicas []int
		windows  []int
		want     float64
	}{
		// F0→F1→B1→B0→F0 of the next minibatch: 2 + 2/3 + 4/3 + 4 = 8 s
		// for one minibatch.
		{"straight", []int{1, 1}, []int{1, 1}, 0.125},
		// The same cycle, but the replica whose backward ends it forwards
		// the minibatch after next: 8 s for two. Its bottleneck alone
		// would read (4 + 2)/2 = 3 s, 0.3333 samples/s.
		{"replicated input stage", []int{2, 1}, []int{2, 1}, 0.25},
	}
	prof := syntheticProfile([]float64{6, 2}, []int64{8, 8}, []int64{8, 8})
	for _, c := range cases {
		plan, err := NewPlan(prof, topology.Flat(3, 1e12, topology.V100), PlanOptions{Stages: []StageSpec{
			{FirstLayer: 0, LastLayer: 0, Replicas: c.replicas[0]},
			{FirstLayer: 1, LastLayer: 1, Replicas: c.replicas[1]},
		}})
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.AtDepth(1)
		if w := plan.Windows(); !slices.Equal(w, c.windows) || math.Abs(plan.PredictedThroughput-c.want) > 1e-4*c.want {
			t.Errorf("%s: windows %v, %.4f samples/s; want %v, %.4f", c.name, w, plan.PredictedThroughput, c.windows, c.want)
		}
	}
}

// flatCase draws a random profile on a random flat topology of 2 to 5
// workers.
func flatCase(seed int64) (*profile.ModelProfile, *topology.Topology) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(6)
	times := make([]float64, n)
	acts := make([]int64, n)
	weights := make([]int64, n)
	for i := range times {
		times[i] = 0.01 + rng.Float64()
		acts[i] = int64(1 + rng.Intn(1<<22))
		weights[i] = int64(1 + rng.Intn(1<<26))
	}
	prof := syntheticProfile(times, acts, weights)
	workers := 2 + rng.Intn(4)
	return prof, topology.Flat(workers, 1e8+rng.Float64()*1e9, topology.V100)
}

// The two seeds on which an earlier optimizer lost to ModelParallel's
// 2-worker straight pipeline while it had to use every worker: it forced
// 2-1 on 3 workers (0.0863 s against 0.0773 s) and 1-4 on 5 (0.2134 s
// against 0.0713 s).
func TestOptimizeDominatesBaselinesAtRecordedSeeds(t *testing.T) {
	for _, seed := range []int64{-3551159696768814281, -7897631603225293097} {
		prof, topo := flatCase(seed)
		opt, err := NewPlan(prof, topo, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := DataParallel(prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := ModelParallel(prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		if best := math.Min(dp.BottleneckTime, mp.BottleneckTime); opt.BottleneckTime > best*(1+1e-9) {
			t.Errorf("seed %d: DP plan %s at %.4g s, DataParallel %.4g s, ModelParallel %s %.4g s",
				seed, opt.ConfigString(), opt.BottleneckTime, dp.BottleneckTime, mp.ConfigString(), mp.BottleneckTime)
		}
	}
}

// Replication spans levels: a stage replicated over every GPU of every
// server is one flat stage with servers × GPUs replicas.
func TestReconstructFlattensNestedReplication(t *testing.T) {
	// Two identical compute-heavy layers with tiny weights and tiny
	// activations: every level's best choice is full replication, so the
	// flattened plan must be data parallelism over all 8 workers
	// (2 servers × 4 GPUs).
	prof := syntheticProfile([]float64{1, 1}, []int64{4, 4}, []int64{4, 4})
	topo := &topology.Topology{
		Name:   "2x4",
		Device: topology.V100,
		Levels: []topology.Level{
			{Width: 4, Bandwidth: 1e12},
			{Width: 2, Bandwidth: 1e12},
		},
	}
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsDataParallel() || plan.Workers != 8 {
		t.Fatalf("plan %s over %d workers, want 8-way DP", plan.ConfigString(), plan.Workers)
	}
}

// A weight-heavy tail forces a pipeline split, and the tail's replicas
// stay within one server's fast links.
func TestReconstructMultipliesReplication(t *testing.T) {
	prof := syntheticProfile(
		[]float64{4, 0.1},
		[]int64{64, 64},
		[]int64{1 << 10, 1 << 32}, // 4 GB tail: never replicate across slow links
	)
	topo := &topology.Topology{
		Name:   "2x2-slow",
		Device: topology.V100,
		Levels: []topology.Level{
			{Width: 2, Bandwidth: 1e11},
			{Width: 2, Bandwidth: 1e8},
		},
	}
	plan, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsDataParallel() {
		t.Fatalf("plan %s: 4 GB of tail weights must not be replicated across the slow link", plan.ConfigString())
	}
	// The tail may replicate within one server's fast links, but never
	// across both servers (which would all_reduce 4 GB at 1e8 B/s).
	if tail := plan.Stages[len(plan.Stages)-1].Replicas; tail > 2 {
		t.Fatalf("plan %s: tail replicated %d-way spans the slow link", plan.ConfigString(), tail)
	}
	if len(plan.Stages) < 2 {
		t.Fatalf("plan %s: expected a pipeline split", plan.ConfigString())
	}
	total := 0
	for _, st := range plan.Stages {
		total += st.Replicas
	}
	if total > 4 {
		t.Fatalf("plan %s uses %d workers, topology has 4", plan.ConfigString(), total)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1, 1}, []int64{4, 4, 4}, []int64{4, 4, 4})
	topo := topology.Flat(3, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{Stages: []StageSpec{
		{FirstLayer: 0, LastLayer: 1, Replicas: 2},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigString() != plan.ConfigString() || got.Depth != plan.Depth ||
		got.BottleneckTime != plan.BottleneckTime {
		t.Fatalf("round trip changed the plan: %s vs %s", got, plan)
	}
}

func TestPlanJSONRejectsWrongModel(t *testing.T) {
	prof := syntheticProfile([]float64{1}, []int64{4}, []int64{4})
	topo := topology.Flat(1, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{Stages: []StageSpec{{FirstLayer: 0, LastLayer: 0, Replicas: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	other := syntheticProfile([]float64{1}, []int64{4}, []int64{4})
	other.Model = "different"
	if _, err := ReadJSON(&buf, other, topo); err == nil {
		t.Fatal("model mismatch must fail")
	}
}

func TestPlanJSONRejectsGarbage(t *testing.T) {
	prof := syntheticProfile([]float64{1}, []int64{4}, []int64{4})
	topo := topology.Flat(1, 1e9, topology.V100)
	if _, err := ReadJSON(bytes.NewBufferString("nope"), prof, topo); err == nil {
		t.Fatal("garbage must fail")
	}
}

// TestEvaluateSyncFormula checks the per-stage pricing formula directly
// against the topology's communication primitive: each of R replicas
// spends bwd + max(fwd, sync) per minibatch.
func TestEvaluateSyncFormula(t *testing.T) {
	prof := syntheticProfile([]float64{3, 3}, []int64{4, 4}, []int64{1 << 20, 1 << 20})
	topo := topology.Flat(4, 1e9, topology.V100)
	stages := []StageSpec{{FirstLayer: 0, LastLayer: 1, Replicas: 4}}
	plan, err := NewPlan(prof, topo, PlanOptions{Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	want := (4 + math.Max(2, topo.AllReduceTime(prof.WeightRange(0, 1), 4))) / 4
	if math.Abs(plan.StageTimes[0]-want) > 1e-12 {
		t.Fatalf("stage time %v, want %v", plan.StageTimes[0], want)
	}
}
