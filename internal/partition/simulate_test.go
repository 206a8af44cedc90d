package partition_test

import (
	"math"
	"math/rand"
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

// TestSimulatedPeakIsThePlannedPrice holds the planner's memory price to
// the simulator's: on every modelzoo model, on one and four Cluster-A
// servers and two Cluster-B servers, for the optimizer's, the straight
// model-parallel and the data-parallel plan at every depth from 1 to two
// past NOAM, each stage's StageMemory is byte for byte the largest
// PeakMemory cluster.Simulate reports for a worker of that stage.
func TestSimulatedPeakIsThePlannedPrice(t *testing.T) {
	plans := 0
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
					res, err := cluster.Simulate(cluster.Config{Profile: prof, Topo: topo, Plan: &q,
						Policy: schedule.PipeDream1F1B, Minibatches: 2*q.Windows()[0] + q.Workers})
					if err != nil {
						t.Fatal(err)
					}
					a := schedule.Assign(&q)
					for s, price := range partition.StageMemory(&q, prof) {
						var peak int64
						for _, w := range a.StageWorkers[s] {
							peak = max(peak, res.PeakMemory[w])
						}
						if peak != price {
							t.Errorf("%s on %s, %s at depth %d: stage %d priced at %d B, simulated peak %d B",
								name, topo.Name, q.ConfigString(), depth, s, price, peak)
						}
					}
					plans++
				}
			}
		}
	}
	t.Logf("%d plans", plans)
}
