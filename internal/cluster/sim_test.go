package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// uniformProfile builds n layers with the given fwd/bwd split, activation
// bytes, and weight bytes each.
func uniformProfile(n int, fwd, bwd float64, act, weight int64) *profile.ModelProfile {
	p := &profile.ModelProfile{Model: "uniform", MinibatchSize: 1, InputBytes: act}
	for i := 0; i < n; i++ {
		p.Layers = append(p.Layers, profile.LayerProfile{
			Name: "l", FwdTime: fwd, BwdTime: bwd, ActivationBytes: act, WeightBytes: weight,
		})
	}
	return p
}

// fastTopo has effectively infinite bandwidth so compute dominates.
func fastTopo(n int) *topology.Topology {
	return topology.Flat(n, 1e18, topology.V100)
}

func straightPlan(t *testing.T, prof *profile.ModelProfile, topo *topology.Topology, stages int) *partition.Plan {
	t.Helper()
	n := prof.NumLayers()
	per := n / stages
	var specs []partition.StageSpec
	first := 0
	for s := 0; s < stages; s++ {
		last := first + per - 1
		if s == stages-1 {
			last = n - 1
		}
		specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: last, Replicas: 1})
		first = last + 1
	}
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: specs})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// validate fails t unless the simulated timeline res passes
// schedule.Validate against plan's event graph over [0, mbs).
func validate(t *testing.T, res *Result, plan *partition.Plan, policy schedule.Policy, mbs int) {
	t.Helper()
	g, err := schedule.Graph(schedule.Assign(plan), policy, 0, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(res.Timeline, g); err != nil {
		t.Fatalf("the simulated timeline breaks its schedule: %v", err)
	}
}

func TestSimulateBalancedPipelineThroughput(t *testing.T) {
	// 4 equal stages, fwd=1, bwd=2, no comm: steady state processes one
	// minibatch per (fwd+bwd)=3 time units.
	prof := uniformProfile(4, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 60, RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-1.0/3.0) > 0.02 {
		t.Fatalf("throughput = %v, want ~1/3", res.Throughput)
	}
}

func TestSimulate1F1BInvariants(t *testing.T) {
	prof := uniformProfile(4, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 40, RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	validate(t, res, plan, schedule.PipeDream1F1B, 40)
}

// A stage's upstream gradient leaves BwdParamTime before its backward
// ends — the parameter halves run after the send — while the worker stays
// busy until the end. One minibatch at a time through two stages (forward
// 1, backward 2, half of it the parameter half): B0 starts at 3 instead of
// 4, so a minibatch completes every 5 time units instead of 6.
func TestSimulateGradientLeavesBeforeParameterHalves(t *testing.T) {
	for _, c := range []struct{ param, period float64 }{{0, 6}, {1, 5}} {
		prof := uniformProfile(2, 1, 2, 4, 4)
		for i := range prof.Layers {
			prof.Layers[i].BwdParamTime = c.param
		}
		topo := fastTopo(2)
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: straightPlan(t, prof, topo, 2).AtDepth(1),
			Policy: schedule.PipeDream1F1B, Minibatches: 20, RecordTimeline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Throughput-1/c.period) > 1e-6 {
			t.Errorf("parameter half %v: throughput %v, want 1/%v", c.param, res.Throughput, c.period)
		}
		for _, op := range res.Timeline.Ops {
			if op.Kind == schedule.Backward && math.Abs(op.End-op.Start-2) > 1e-9 {
				t.Fatalf("parameter half %v: a backward occupies its worker %v, want 2", c.param, op.End-op.Start)
			}
		}
	}
}

func TestSimulateModelParallelLowUtilization(t *testing.T) {
	// Figure 2: model parallelism keeps ~1 of 4 workers busy.
	prof := uniformProfile(4, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan.AtDepth(1),
		Policy: schedule.PipeDream1F1B, Minibatches: 30, RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanUtilization > 0.3 {
		t.Fatalf("model-parallel utilization %v, want ~0.25", res.MeanUtilization)
	}
	// Exactly one minibatch at a time: throughput = 1/(4*(1+2)).
	if math.Abs(res.Throughput-1.0/12.0) > 0.01 {
		t.Fatalf("throughput = %v, want ~1/12", res.Throughput)
	}
}

func TestSimulatePipeDreamBeatsGPipeBeatsModelParallel(t *testing.T) {
	// The paper's central hardware-efficiency ordering (Figures 2-4).
	prof := uniformProfile(8, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	run := func(policy schedule.Policy, plan *partition.Plan) float64 {
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: plan,
			Policy: policy, Minibatches: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	pd := run(schedule.PipeDream1F1B, plan)
	gp := run(schedule.GPipe, plan)
	mp := run(schedule.PipeDream1F1B, plan.AtDepth(1))
	if !(pd > gp && gp > mp) {
		t.Fatalf("ordering violated: 1F1B %v, GPipe %v, MP %v", pd, gp, mp)
	}
}

func TestSimulateGPipeFlushCost(t *testing.T) {
	// GPipe with m microbatches on k stages: each round costs
	// (m + k - 1)*fwd + (m + k - 1)*bwd versus PipeDream's m*(fwd+bwd) in
	// steady state; utilization loss shows up as lower throughput.
	prof := uniformProfile(4, 1, 1, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	plan.Depth = 4
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.GPipe, Minibatches: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round of 4 microbatches costs (4+3)*1 fwd + (4+3)*1 bwd = 14 for 4
	// minibatches → throughput 4/14 ≈ 0.286.
	want := 4.0 / 14.0
	if math.Abs(res.Throughput-want) > 0.03 {
		t.Fatalf("GPipe throughput = %v, want ~%v", res.Throughput, want)
	}
}

// GPipe's flush is a barrier: no forward of round r+1 starts before
// round r's all_reduce ends, and no worker runs two ops at once. Two
// layers of 1 GB weights on a 1 GB/s link sync for about a second, on the
// replicated stage of a 1-2 and of a 2-1 plan.
func TestGPipeRoundWaitsForItsFlush(t *testing.T) {
	prof := uniformProfile(2, 1, 2, 4, 1<<30)
	topo := topology.Flat(3, 1e9, topology.V100)
	for _, replicas := range [][2]int{{1, 2}, {2, 1}} {
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 0, Replicas: replicas[0]},
			{FirstLayer: 1, LastLayer: 1, Replicas: replicas[1]},
		}})
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.AtDepth(4)
		const mbs = 16
		res, err := Simulate(Config{Profile: prof, Topo: topo, Plan: plan,
			Policy: schedule.GPipe, Minibatches: mbs, RecordTimeline: true})
		if err != nil {
			t.Fatal(err)
		}
		validate(t, res, plan, schedule.GPipe, mbs)
		flushEnd := make([]float64, mbs/4) // per round, when its last all_reduce ends
		for _, op := range res.Timeline.Ops {
			if op.Kind == schedule.SyncOp {
				flushEnd[op.Minibatch/4] = max(flushEnd[op.Minibatch/4], op.End)
			}
		}
		for _, op := range res.Timeline.Ops {
			if round := op.Minibatch / 4; op.Kind == schedule.Forward && round > 0 && op.Start < flushEnd[round-1] {
				t.Errorf("%s: F%d starts at %.4g, before round %d's flush ends at %.4g",
					plan.ConfigString(), op.Minibatch, op.Start, round-1, flushEnd[round-1])
			}
		}
		if flushEnd[0] == 0 {
			t.Errorf("%s: no all_reduce after round 0", plan.ConfigString())
		}
	}
}

func TestSimulateReplicatedStageRoundRobin(t *testing.T) {
	// Figure 8: 2-1 configuration. Stage 0 is replicated; forward and
	// backward of each minibatch must run on the same replica, with even
	// minibatches on replica 0 and odd on replica 1.
	prof := uniformProfile(2, 1, 1, 4, 4)
	topo := fastTopo(3)
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 2},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 20, RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Timeline.Ops {
		if op.Stage != 0 || op.Kind == schedule.SyncOp {
			continue
		}
		if want := op.Minibatch % 2; op.Worker != want {
			t.Fatalf("mb %d %v ran on worker %d, want %d", op.Minibatch, op.Kind, op.Worker, want)
		}
	}
	validate(t, res, plan, schedule.PipeDream1F1B, 20)
}

func TestSimulateCommunicationDelaysThroughput(t *testing.T) {
	// With a slow link, the inter-stage transfer becomes the bottleneck.
	prof := uniformProfile(2, 0.1, 0.1, 1<<20, 4)
	topo := topology.Flat(2, 1e6, topology.V100) // 1 MB/s: 1 MiB transfer ≈ 1.05 s
	plan := straightPlan(t, prof, topo, 2)
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Transfers are pipelined but the link serializes one activation per
	// direction per minibatch; throughput ≤ 1/transfer.
	transfer := float64(1<<20) / 1e6
	if res.Throughput > 1/transfer*1.1 {
		t.Fatalf("throughput %v exceeds link capacity bound %v", res.Throughput, 1/transfer)
	}
}

func TestSimulatePeakMemoryScalesWithDepth(t *testing.T) {
	prof := uniformProfile(4, 1, 2, 1<<20, 1<<20)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	memAt := func(depth int) int64 {
		q := *plan
		q.Depth = depth
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: &q,
			Policy: schedule.PipeDream1F1B, Minibatches: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakMemory[0] // input stage stashes the most
	}
	m2, m4, m7 := memAt(2), memAt(4), memAt(7)
	if !(m2 < m4 && m4 < m7) {
		t.Fatalf("memory not increasing with depth: %d, %d, %d", m2, m4, m7)
	}
}

func TestSimulateThroughputImprovesWithDepthUntilNOAM(t *testing.T) {
	// Figure 18a: throughput rises with pipeline depth and saturates
	// around NOAM.
	prof := uniformProfile(4, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4) // NOAM = 4
	tputAt := func(depth int) float64 {
		q := *plan
		q.Depth = depth
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: &q,
			Policy: schedule.PipeDream1F1B, Minibatches: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	t2, t4, t7 := tputAt(2), tputAt(4), tputAt(7)
	if !(t2 < t4) {
		t.Fatalf("throughput should rise 2→4: %v vs %v", t2, t4)
	}
	if t7 < t4*0.99 {
		t.Fatalf("throughput should not degrade past NOAM: %v vs %v", t4, t7)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	prof := uniformProfile(6, 0.5, 1.0, 1024, 2048)
	topo := topology.ClusterA(1)
	plan := straightPlan(t, prof, topo, 3)
	run := func() *Result {
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: plan,
			Policy: schedule.PipeDream1F1B, Minibatches: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime || a.Throughput != b.Throughput {
		t.Fatalf("simulation not deterministic: %v vs %v", a.TotalTime, b.TotalTime)
	}
}

// Property: simulated work conservation — every admitted minibatch
// completes exactly once, and completion times are strictly positive and
// bounded by total time.
func TestSimulateWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nLayers := 2 + rng.Intn(6)
		prof := uniformProfile(nLayers, 0.1+rng.Float64(), 0.1+rng.Float64(),
			int64(1+rng.Intn(1<<16)), int64(1+rng.Intn(1<<16)))
		stages := 1 + rng.Intn(nLayers)
		workers := stages + rng.Intn(3)
		topo := topology.Flat(workers, 1e9, topology.V100)
		// Give extra workers to the first stage.
		var specs []partition.StageSpec
		per := nLayers / stages
		first := 0
		for s := 0; s < stages; s++ {
			last := first + per - 1
			if s == stages-1 {
				last = nLayers - 1
			}
			rep := 1
			if s == 0 {
				rep = workers - (stages - 1)
			}
			specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: last, Replicas: rep})
			first = last + 1
		}
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: specs})
		if err != nil {
			t.Fatalf("evaluate: %v", err)
		}
		mbs := 10 + rng.Intn(30)
		k := rng.Intn(3)
		policy := []schedule.Policy{schedule.PipeDream1F1B, schedule.GPipe, schedule.PipeDream1F1B}[k]
		if k == 2 { // model parallelism
			plan = plan.AtDepth(1)
		}
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: plan,
			Policy: policy, Minibatches: mbs,
		})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		for i, ct := range res.CompletionTimes {
			if ct <= 0 || ct > res.TotalTime+1e-9 {
				t.Logf("seed %d policy %v: completion %d at %v (total %v)", seed, policy, i, ct, res.TotalTime)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncStall(t *testing.T) {
	// Heavy weights on a slow link → stall near 1; tiny weights → 0.
	heavy := uniformProfile(2, 0.05, 0.1, 4, 256<<20)
	light := uniformProfile(2, 0.05, 0.1, 4, 1<<10)
	topo := topology.ClusterA(4)
	stall := func(prof *profile.ModelProfile) float64 {
		dp, err := partition.DataParallel(prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		return SyncStall(prof, dp)
	}
	if h := stall(heavy); h < 0.5 {
		t.Fatalf("heavy model stall %v, want >0.5", h)
	}
	if l := stall(light); l < 0 || l > 1e-12 {
		t.Fatalf("light model stall %v, want 0", l)
	}
}

func TestPipelineBytesPerSampleStraight(t *testing.T) {
	prof := uniformProfile(4, 1, 1, 1000, 512)
	prof.MinibatchSize = 10
	cases := []struct {
		name   string
		stages []partition.StageSpec
		want   float64
	}{
		// Worst worker: stage 0 sends act (1000) and receives grad (1000)
		// → 2000 bytes / 10 samples = 200.
		{"straight", []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 1, Replicas: 1},
			{FirstLayer: 2, LastLayer: 3, Replicas: 1},
		}, 200},
		// Data parallelism: 2*(3/4)*2048 bytes per minibatch of 10
		// samples.
		{"one stage ×4", []partition.StageSpec{{FirstLayer: 0, LastLayer: 3, Replicas: 4}}, 307.2},
		{"one stage ×1", []partition.StageSpec{{FirstLayer: 0, LastLayer: 3, Replicas: 1}}, 0},
	}
	for _, c := range cases {
		if got := PipelineBytesPerSample(prof, c.stages); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: bytes/sample = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTimelineRenderShowsPipelineFill(t *testing.T) {
	prof := uniformProfile(4, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 8, RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Timeline.Render(1)
	if len(out) == 0 {
		t.Fatal("empty render")
	}
}

// Recomputation is a profile whose backward passes re-run their forwards:
// on it the steady state is fwd+bwd+fwd = 4 units per minibatch instead of
// 3.
func TestSimulateRecomputeTradesMemoryForCompute(t *testing.T) {
	topo := fastTopo(4)
	run := func(prof *profile.ModelProfile) *Result {
		res, err := Simulate(Config{
			Profile: prof, Topo: topo, Plan: straightPlan(t, prof, topo, 4),
			Policy: schedule.PipeDream1F1B, Minibatches: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, recomp := run(uniformProfile(4, 1, 2, 1<<20, 1<<10)), run(uniformProfile(4, 1, 2+1, 1<<20, 1<<10))
	if recomp.Throughput >= plain.Throughput {
		t.Fatalf("recompute should cost throughput: %v vs %v", recomp.Throughput, plain.Throughput)
	}
	if math.Abs(recomp.Throughput-0.25) > 0.02 {
		t.Fatalf("recompute throughput %v, want ~1/4", recomp.Throughput)
	}
}

func TestSimulatePlanWithoutDepth(t *testing.T) {
	// A Plan literal that never went through NewPlan has depth 0: an error
	// from the simulator, which reads the schedule table, not a panic.
	prof := uniformProfile(2, 1, 2, 4, 4)
	plan := &partition.Plan{Workers: 2, Graph: partition.NewLinear(2), Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 1},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
	}}
	if _, err := Simulate(Config{Profile: prof, Topo: fastTopo(2), Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 8}); err == nil {
		t.Fatal("Simulate accepted a plan with depth 0")
	}
}

func TestWaitFreeSyncOverlapsCompute(t *testing.T) {
	// A single replicated stage (DP plan) with sync < compute: wait-free
	// backprop hides the sync entirely.
	prof := uniformProfile(2, 1, 2, 4, 1<<20)
	topo := topology.Flat(2, 4e6, topology.V100) // sync = 2*(1/2)*2MiB/4MB/s ≈ 0.52s < bwd 4
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 1, Replicas: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With sync hidden, each replica sustains one minibatch per
	// fwd+bwd = 6 units → stage throughput 2/6.
	if math.Abs(res.Throughput-1.0/3.0) > 0.02 {
		t.Fatalf("overlapped throughput %v, want ~1/3", res.Throughput)
	}
}

func TestWaitFreeSyncBoundsWhenSyncDominates(t *testing.T) {
	// Sync ≫ compute: the NIC serializes backwards, so the replica period
	// approaches the sync time even with overlap.
	prof := uniformProfile(2, 0.1, 0.2, 4, 1<<20)
	topo := topology.Flat(2, 1e6, topology.V100) // sync ≈ 2.1s ≫ compute 0.9
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 1, Replicas: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	sync := topo.AllReduceTime(2<<20, 2)
	// Period per replica ≥ sync (NIC serialization): throughput ≤ 2/sync.
	if res.Throughput > 2/sync*1.05 {
		t.Fatalf("throughput %v exceeds NIC-bound %v", res.Throughput, 2/sync)
	}
}

func TestStragglerSlowsPipelineByItsStage(t *testing.T) {
	// A straight pipeline's throughput is its slowest stage: slowing one
	// stage's layers 2x halves steady-state throughput of the plan made for
	// nominal ones; 1F1B cannot route around a straggler.
	prof := uniformProfile(4, 1, 2, 4, 4)
	topo := fastTopo(4)
	plan := straightPlan(t, prof, topo, 4)
	base, err := Simulate(Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	straggler := uniformProfile(4, 1, 2, 4, 4)
	straggler.Layers[2].FwdTime, straggler.Layers[2].BwdTime = 2, 4 // stage 2 is a 2x straggler
	slow, err := Simulate(Config{
		Profile: straggler, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := base.Throughput / slow.Throughput
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("straggler slowdown %.2f, want ~2 (bottleneck-stage bound)", ratio)
	}
}
