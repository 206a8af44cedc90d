package partition_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// simulate returns the steady-state throughput cluster.Simulate measures
// for plan under 1F1B.
func simulate(t *testing.T, prof *profile.ModelProfile, topo *topology.Topology, plan *partition.Plan, minibatches int) float64 {
	t.Helper()
	res, err := cluster.Simulate(cluster.Config{Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: minibatches})
	if err != nil {
		t.Fatal(err)
	}
	return res.Throughput
}

// TestRingSyncHidesUnderCompute pins the planner's replication decision
// on two workers: replicating a stage pays when its ring sync hides under
// the next forward, and not when the sync outlasts it. Either way the
// planner picks the plan the simulator runs faster.
func TestRingSyncHidesUnderCompute(t *testing.T) {
	cases := []struct {
		name string
		prof *profile.ModelProfile
		want string
	}{
		// 6 s and 4 s layers, 2 GiB of weights on a 2 GB/s link: the
		// 1.07 s sync hides under the 3.33 s forward, so data parallelism
		// takes (6.67 + 3.33)/2 = 5 s per minibatch, the straight split 6.
		{"sync hides", partition.SyntheticProfile([]float64{6, 4}, []int64{8, 8}, []int64{1 << 30, 1 << 30}), "2 (DP)"},
		// Two 5 s layers, 8 GiB of weights: the 4.29 s sync outlasts the
		// 3.33 s forward, so data parallelism takes (6.67 + 4.29)/2 =
		// 5.48 s, the straight split 5.
		{"sync outlasts the forward", partition.SyntheticProfile([]float64{5, 5}, []int64{8, 8}, []int64{4 << 30, 4 << 30}), "Straight"},
	}
	topo := topology.Flat(2, 2e9, topology.V100)
	for _, c := range cases {
		plan, err := partition.NewPlan(c.prof, topo, partition.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dp, err := partition.DataParallel(c.prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		straight, err := partition.ModelParallel(c.prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		faster := dp
		if simulate(t, c.prof, topo, straight, 40) > simulate(t, c.prof, topo, dp, 40) {
			faster = straight
		}
		if plan.ConfigString() != c.want || faster.ConfigString() != c.want {
			t.Errorf("%s: planner picks %v, simulator runs %s faster; want %s", c.name, plan, faster.ConfigString(), c.want)
		}
	}
}

// Property: on every one-stage plan — R replicas of the whole model, flat
// or two-level topology, R from 1 to every worker — evaluate's predicted
// throughput is the one cluster.Simulate measures.
func TestEvaluateMatchesSimulateOnOneStagePlans(t *testing.T) {
	f := func(seed int64, twoLevel bool) bool {
		prof, topo := partition.FlatCase(seed)
		if twoLevel {
			prof, topo = partition.TwoLevelCase(seed)
		}
		r := 1 + rand.New(rand.NewSource(seed)).Intn(topo.TotalWorkers())
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
			{FirstLayer: 0, LastLayer: prof.NumLayers() - 1, Replicas: r},
		}})
		if err != nil {
			t.Fatal(err)
		}
		sim := simulate(t, prof, topo, plan, 8*r)
		if math.Abs(sim-plan.PredictedThroughput) > 1e-12*plan.PredictedThroughput {
			t.Logf("seed %d (two levels: %v): %d replicas, evaluate %v, Simulate %v",
				seed, twoLevel, r, plan.PredictedThroughput, sim)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a straight two-stage plan whose edge is its bottleneck — a
// flat link slow enough that the activation and its gradient take one to
// four times the slower stage — never simulates above evaluate's price.
// Simulate queues both transfers on the edge's one link, the occupancy
// edgeTime charges. A plan may read below its price (its in-flight window
// need not cover the edge's round trip), so only the ceiling is held.
func TestEdgeBoundTwoStagePlansSimulateAtMostTheirPrice(t *testing.T) {
	f := func(seed int64) bool {
		prof, _ := partition.FlatCase(seed)
		rng := rand.New(rand.NewSource(seed))
		n := prof.NumLayers()
		cut := rng.Intn(n - 1)
		stage := max(prof.TimeRange(0, cut), prof.TimeRange(cut+1, n-1))
		bandwidth := float64(2*prof.ActivationBytes(cut)) / (stage * (1 + 3*rng.Float64()))
		topo := topology.Flat(2, bandwidth, topology.V100)
		plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
			{FirstLayer: 0, LastLayer: cut, Replicas: 1},
			{FirstLayer: cut + 1, LastLayer: n - 1, Replicas: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if plan.BottleneckTime != plan.CommTimes[0] {
			t.Fatalf("seed %d: the edge (%v s) is not the bottleneck (%v s)", seed, plan.CommTimes[0], plan.BottleneckTime)
		}
		if sim := simulate(t, prof, topo, plan, 64); sim > 1.005*plan.PredictedThroughput {
			t.Logf("seed %d: cut after layer %d of %d, evaluate %v, Simulate %v (%+.1f%%)",
				seed, cut, n, plan.PredictedThroughput, sim, (sim/plan.PredictedThroughput-1)*100)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomPlan prices a random plan of 2–6 one-layer stages, 1–4 replicas
// each, on a flat link of 1e8–1e10 B/s (log-uniform): a chain, or with
// dag set a stage graph with fan-in, fan-out and several sinks.
// Activations reach 2^26 bytes, so the slow links make some plans
// edge-bound.
func randomPlan(t *testing.T, seed int64, dag bool) (*profile.ModelProfile, *topology.Topology, *partition.Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	times := make([]float64, n)
	acts := make([]int64, n)
	weights := make([]int64, n)
	stages := make([]partition.StageSpec, n)
	workers := 0
	for i := range times {
		times[i] = 0.01 + rng.Float64()
		acts[i] = int64(1 + rng.Intn(1<<26))
		weights[i] = int64(1 + rng.Intn(1<<26))
		stages[i] = partition.StageSpec{FirstLayer: i, LastLayer: i, Replicas: 1 + rng.Intn(4)}
		workers += stages[i].Replicas
	}
	graph := partition.NewLinear(n)
	if dag {
		graph = &partition.StageGraph{Nodes: n, Joins: make([]partition.JoinOp, n)}
		for s := 1; s < n; s++ {
			fanIn := 0
			for p := 0; p < s; p++ {
				// One predecessor always; extra in-edges one time in three.
				if p == rng.Intn(s) || rng.Intn(3) == 0 {
					graph.Edges = append(graph.Edges, partition.StageEdge{From: p, To: s})
					fanIn++
				}
			}
			if fanIn == 0 {
				graph.Edges = append(graph.Edges, partition.StageEdge{From: s - 1, To: s})
			} else if fanIn > 1 {
				graph.Joins[s] = partition.JoinSum
			}
		}
	}
	prof := partition.SyntheticProfile(times, acts, weights)
	topo := topology.Flat(workers, 1e8*math.Pow(100, rng.Float64()), topology.V100)
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: stages, Graph: graph})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return prof, topo, plan
}

// randomPlanRuns counts this process's runs of
// TestRandomPlansSimulateAtTheirPrice: run k draws seeds 400k to
// 400k+399, so -count=n covers the first n·400 plans of each shape, the
// same ones every time.
var randomPlanRuns int64

// Property: every random chain and stage graph, replicated or not, compute-
// or edge-bound, simulates at no less than 0.99 of its price at its own
// windows, over 64 minibatches per worker: they cover every 1F1B cycle
// at the plan's bottleneck. NOAM's windows leave 53 chains and 33 stage
// graphs of seeds 0–399 short. The windows are a model of the
// simulator's queues, not its exact dynamics: seeds 0–3,999 hold, but on
// 10,000 chains and 10,000 stage graphs from seed 1,000,000 on, two
// graphs read 0.975 and 0.980, one a two-stage chain whose three
// minibatches in flight travel the saturated link as a convoy.
//
// Each plan also runs at one drawn depth from 1 to its own, where its
// windows may leave cycles short: there it never simulates faster than
// 1.005 of its price. (When Simulate read one input replica's
// completions, 10 of seeds 0–3,999's replicated plans read 1.005–1.600
// there, chain 4-4-4 of seed 370 at depth 2 among them, while the run's
// completions in time order read ≤ 1.000.) The share of plans within
// ±2 % there is logged, the replicated ones apart.
func TestRandomPlansSimulateAtTheirPrice(t *testing.T) {
	base := 400 * randomPlanRuns
	randomPlanRuns++
	for _, dag := range []bool{false, true} {
		rng := rand.New(rand.NewSource(base))
		edgeBound, short, replicated, close, replicatedClose := 0, 0, 0, 0, 0
		for seed := base; seed < base+400; seed++ {
			prof, topo, plan := randomPlan(t, seed, dag)
			if slices.Contains(plan.CommTimes, plan.BottleneckTime) {
				edgeBound++
			}
			if ratio := simulate(t, prof, topo, plan, 64*plan.Workers) / plan.PredictedThroughput; ratio < 0.99 {
				t.Errorf("dag %v seed %d: %s windows %v simulates at %.3f of its price",
					dag, seed, plan.ConfigString(), plan.Windows(), ratio)
				short++
			}
			q := plan.AtDepth(1 + rng.Intn(plan.Depth))
			ratio := simulate(t, prof, topo, q, 64*q.Workers) / q.PredictedThroughput
			if ratio > 1.005 {
				t.Errorf("dag %v seed %d: %s at depth %d, windows %v, simulates at %.3f of its price",
					dag, seed, q.ConfigString(), q.Depth, q.Windows(), ratio)
			}
			within := math.Abs(ratio-1) <= 0.02
			if within {
				close++
			}
			if slices.ContainsFunc(q.Stages, func(st partition.StageSpec) bool { return st.Replicas > 1 }) {
				replicated++
				if within {
					replicatedClose++
				}
			}
		}
		t.Logf("dag %v: seeds %d–%d, %d edge-bound, %d below 0.99; at a drawn depth, %d of 400 plans within ±2%%, %d of %d replicated ones",
			dag, base, base+399, edgeBound, short, close, replicatedClose, replicated)
		if edgeBound == 0 {
			t.Errorf("dag %v: no edge-bound plan drawn", dag)
		}
	}
}

// TestPriceGraphHasNoZeroOffsetCycle is the static deadlock check on the
// graph price folds: maxCycleRatio takes every cycle of it to carry Σ d > 0
// minibatches, and a cycle with Σ d ≤ 0 is a pass that waits on itself.
// Over the random chains and stage graphs of
// TestRandomPlansSimulateAtTheirPrice (seeds 0–3,999), at their own depth
// and at the depth it draws, Bellman–Ford on the weights d·(n+1) − 1 finds no
// negative cycle: a simple cycle of L ≤ n arcs weighs (n+1)·Σ d − L, below
// zero exactly when Σ d ≤ 0.
func TestPriceGraphHasNoZeroOffsetCycle(t *testing.T) {
	for _, dag := range []bool{false, true} {
		for base := int64(0); base < 4000; base += 400 {
			rng := rand.New(rand.NewSource(base))
			for seed := base; seed < base+400; seed++ {
				_, _, plan := randomPlan(t, seed, dag)
				for _, q := range []*partition.Plan{plan, plan.AtDepth(1 + rng.Intn(plan.Depth))} {
					if zeroOffsetCycle(partition.EventGraph(q, q.Windows())) {
						t.Fatalf("dag %v seed %d: %s at depth %d, windows %v: price's graph has a cycle with Σ d ≤ 0",
							dag, seed, q.ConfigString(), q.Depth, q.Windows())
					}
				}
			}
		}
	}
}

// zeroOffsetCycle reports whether a graph of n nodes has a cycle whose
// arcs' offsets sum to at most zero: Bellman–Ford from every node at once.
func zeroOffsetCycle(n int, arcs [][3]int) bool {
	dist := make([]int, n)
	for range n {
		relaxed := false
		for _, a := range arcs {
			if w := dist[a[0]] + a[2]*(n+1) - 1; w < dist[a[1]] {
				dist[a[1]], relaxed = w, true
			}
		}
		if !relaxed {
			return false
		}
	}
	return true
}

// TestGraphFoldsToThePrice holds the graph schedule.Graph unrolls to the
// one price folds, under 1F1B and under GPipe. Both read Plan.Arcs, but
// Graph takes its order arcs from schedule.Table and price from Arcs, so
// this referees the two orders. Over the random chains and stage graphs of
// seeds 0–799, at their own depth and at the depth
// TestPriceGraphHasNoZeroOffsetCycle draws, Graph's arcs out of one steady
// period [P, P+L) (past every warm-up, before any drain) folded modulo the
// lcm L of the replica counts, and of the depth under GPipe, are the arcs
// of partition.EventGraph, each with its minibatch offset.
func TestGraphFoldsToThePrice(t *testing.T) {
	arcOrder := func(a, b [3]int) int { return slices.Compare(a[:], b[:]) }
	for _, dag := range []bool{false, true} {
		for base := int64(0); base < 800; base += 400 {
			rng := rand.New(rand.NewSource(base))
			for seed := base; seed < base+400; seed++ {
				_, _, plan := randomPlan(t, seed, dag)
				for _, q := range []*partition.Plan{plan, plan.AtDepth(1 + rng.Intn(plan.Depth))} {
					for _, policy := range []schedule.Policy{schedule.PipeDream1F1B, schedule.GPipe} {
						window := q.Windows()
						if policy == schedule.GPipe {
							window = nil
						}
						n, want := partition.EventGraph(q, window)
						got := foldedPeriod(t, q, policy, n/2/len(q.Stages))
						slices.SortFunc(got, arcOrder)
						slices.SortFunc(want, arcOrder)
						if !slices.Equal(got, want) {
							i := 0
							for i < min(len(got), len(want)) && got[i] == want[i] {
								i++
							}
							t.Fatalf("dag %v seed %d: %s at depth %d under %v, windows %v: the table's steady period folds to %d arcs, price's graph has %d; sorted, they part at %v against %v",
								dag, seed, q.ConfigString(), q.Depth, policy, q.Windows(), len(got), len(want), got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
						}
					}
				}
			}
		}
	}
}

// foldedPeriod unrolls plan's event graph under policy over [0, 2P+L), P
// past every window and two GPipe rounds by a replica count, and returns
// the arcs out of minibatches [P, P+L) as partition.EventGraph numbers
// them: ends folded modulo L, and the minibatch offset.
func foldedPeriod(t *testing.T, plan *partition.Plan, policy schedule.Policy, lcm int) [][3]int {
	t.Helper()
	p := 0
	for s, w := range plan.Windows() {
		p = max(p, max(w, 2*plan.Depth)+plan.Stages[s].Replicas)
	}
	g, err := schedule.Graph(schedule.Assign(plan), policy, 0, 2*p+lcm)
	if err != nil {
		t.Fatal(err)
	}
	node := func(n schedule.Node) int { return (n.Stage*lcm+n.Minibatch%lcm)*2 + int(n.Kind) }
	var arcs [][3]int
	for _, n := range g.Nodes {
		if n.Minibatch < p || n.Minibatch >= p+lcm {
			continue
		}
		for _, a := range n.Out {
			to := g.Nodes[a.To]
			arcs = append(arcs, [3]int{node(n), node(to), to.Minibatch - n.Minibatch})
		}
	}
	return arcs
}

// TestSimulatedPeakIsThePlannedPrice holds the planner's memory price to
// the simulator's: on every modelzoo model, on one and four Cluster-A
// servers and two Cluster-B servers, for the optimizer's, the straight
// model-parallel and the data-parallel plan at every depth from 1 to two
// past the plan's own, each stage's StageMemory is byte for byte the largest
// PeakMemory cluster.Simulate reports for a worker of that stage. The same
// holds for WorkerMemory under GPipe, whose replicas each hold ⌈depth/R⌉
// of a round's microbatches (sec54 sizes its GPipe depth by that price):
// over a run of 3·depth·workers minibatches, so that every replica of
// every stage takes its turn at the most.
func TestSimulatedPeakIsThePlannedPrice(t *testing.T) {
	plans, peaks := 0, 0
	for _, topo := range []*topology.Topology{topology.ClusterA(1), topology.ClusterA(4), topology.ClusterB(2)} {
		for _, name := range modelzoo.Names() {
			prof, err := modelzoo.ByName(name, topo.Device, modelzoo.PaperBatchSize(name))
			if err != nil {
				t.Fatal(err)
			}
			for _, build := range []func(*profile.ModelProfile, *topology.Topology) (*partition.Plan, error){
				func(prof *profile.ModelProfile, topo *topology.Topology) (*partition.Plan, error) {
					return partition.NewPlan(prof, topo, partition.PlanOptions{})
				},
				partition.ModelParallel,
				partition.DataParallel,
			} {
				plan, err := build(prof, topo)
				if err != nil {
					t.Fatal(err)
				}
				for depth := 1; depth <= plan.Depth+2; depth++ {
					q := *plan
					q.Depth = depth
					a := schedule.Assign(&q)
					check := func(policy schedule.Policy, minibatches int, price func(s int) int64) {
						t.Helper()
						res, err := cluster.Simulate(cluster.Config{Profile: prof, Topo: topo, Plan: &q,
							Policy: policy, Minibatches: minibatches})
						if err != nil {
							t.Fatal(err)
						}
						for s, workers := range a.StageWorkers {
							var peak int64
							for _, w := range workers {
								peak = max(peak, res.PeakMemory[w])
							}
							peaks++
							if peak != price(s) {
								t.Errorf("%s on %s, %s at depth %d under %v: stage %d priced at %d B, simulated peak %d B",
									name, topo.Name, q.ConfigString(), depth, policy, s, price(s), peak)
							}
						}
					}
					// A replica's share of n minibatches across its stage's replicas.
					share := func(n, s int) int { return (n + q.Stages[s].Replicas - 1) / q.Stages[s].Replicas }
					windows, mem := q.Windows(), partition.StageMemory(&q, prof)
					check(schedule.PipeDream1F1B, 2*windows[0]+q.Workers, func(s int) int64 { return mem[s] })
					check(schedule.GPipe, 3*depth*q.Workers, func(s int) int64 {
						return partition.WorkerMemory(prof, q.Stages[s], share(depth, s), true, false)
					})
					plans++
				}
			}
		}
	}
	t.Logf("%d plans, each under 1F1B and GPipe: %d stage peaks", plans, peaks)
}
