package schedule

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// planWith prices a chain of one-layer stages with the given replica
// counts on a flat, fast link.
func planWith(stages ...int) *partition.Plan {
	return pricedPlan(stages, nil, nil)
}

// pricedPlan prices one-layer stages with the given replica counts over
// graph (nil: the chain) on a synthetic profile. With no rng every layer
// takes a 1 s forward and a 2 s backward on a link fast enough to be
// free; with one, a 0.1–1 s forward (the backward twice that) and an
// activation of up to 16 MiB on a 0.1–10 GB/s link, so that some plans
// are bound by an edge and their windows reach past their stages'.
func pricedPlan(replicas []int, graph *partition.StageGraph, rng *rand.Rand) *partition.Plan {
	prof := &profile.ModelProfile{Model: "t", MinibatchSize: 1, InputBytes: 4}
	var stages []partition.StageSpec
	workers := 0
	bandwidth := 1e18
	if rng != nil {
		bandwidth = 1e8 * math.Pow(100, rng.Float64())
	}
	for s, r := range replicas {
		layer := profile.LayerProfile{Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4}
		if rng != nil {
			layer.FwdTime = 0.1 + 0.9*rng.Float64()
			layer.BwdTime = 2 * layer.FwdTime
			layer.ActivationBytes = 1 + rng.Int63n(1<<24)
		}
		prof.Layers = append(prof.Layers, layer)
		stages = append(stages, partition.StageSpec{FirstLayer: s, LastLayer: s, Replicas: r})
		workers += r
	}
	plan, err := partition.NewPlan(prof, topology.Flat(workers, bandwidth, topology.V100),
		partition.PlanOptions{Stages: stages, Graph: graph})
	if err != nil {
		panic(err)
	}
	return plan
}

func TestAssignDenseWorkerIDs(t *testing.T) {
	a := Assign(planWith(2, 1, 3))
	if a.NumWorkers() != 6 {
		t.Fatalf("workers = %d, want 6", a.NumWorkers())
	}
	// Stage 0 gets workers 0,1; stage 1 gets 2; stage 2 gets 3,4,5.
	if a.Workers[0] != (WorkerRef{0, 0}) || a.Workers[1] != (WorkerRef{0, 1}) {
		t.Fatalf("stage0 refs wrong: %+v", a.Workers[:2])
	}
	if a.Workers[2] != (WorkerRef{1, 0}) {
		t.Fatalf("stage1 ref wrong: %+v", a.Workers[2])
	}
	if got := a.StageWorkers[2]; len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("stage2 workers %v", got)
	}
}

func TestReplicaForRoundRobin(t *testing.T) {
	for mb := 0; mb < 10; mb++ {
		if got := ReplicaFor(mb, 3); got != mb%3 {
			t.Fatalf("ReplicaFor(%d,3) = %d", mb, got)
		}
	}
	if ReplicaFor(5, 1) != 0 {
		t.Fatal("single replica must always be 0")
	}
}

func TestReplicaForPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReplicaFor(1, 0)
}

func TestNoam(t *testing.T) {
	cases := []struct{ workers, inputReps, want int }{
		{4, 1, 4},   // Figure 4: straight 4-worker pipeline
		{3, 2, 2},   // Figure 8: 2-1 configuration
		{16, 15, 2}, // VGG-16's 15-1
		{16, 16, 1}, // pure data parallelism
		{5, 4, 2},
	}
	for _, c := range cases {
		if got := partition.Noam(c.workers, c.inputReps); got != c.want {
			t.Fatalf("partition.Noam(%d,%d) = %d, want %d", c.workers, c.inputReps, got, c.want)
		}
	}
}

// Property: NOAM is the minimal m with m·inputReps ≥ workers.
func TestNoamMinimality(t *testing.T) {
	f := func(w, r uint8) bool {
		workers := int(w%63) + 1
		reps := int(r)%workers + 1
		n := partition.Noam(workers, reps)
		return n*reps >= workers && (n-1)*reps < workers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineUtilization(t *testing.T) {
	tl := &Timeline{Workers: 2, Horizon: 10}
	tl.Ops = []Op{
		{Worker: 0, Kind: Forward, Start: 0, End: 5},
		{Worker: 0, Kind: Backward, Start: 5, End: 10},
		{Worker: 1, Kind: Forward, Start: 0, End: 2},
	}
	u := tl.Utilization(0)
	if u[0] != 1.0 || u[1] != 0.2 {
		t.Fatalf("utilization = %v", u)
	}
	if m := tl.MeanUtilization(0); m != 0.6 {
		t.Fatalf("mean = %v", m)
	}
	// Window clipping.
	u = tl.Utilization(5)
	if u[0] != 1.0 || u[1] != 0 {
		t.Fatalf("clipped utilization = %v", u)
	}
}

func TestTimelineRender(t *testing.T) {
	tl := &Timeline{Workers: 1, Horizon: 4}
	tl.Ops = []Op{
		{Worker: 0, Minibatch: 3, Kind: Forward, Start: 0, End: 2},
		{Worker: 0, Minibatch: 3, Kind: Backward, Start: 2, End: 4},
	}
	out := tl.Render(1)
	if !strings.Contains(out, "33dd") {
		t.Fatalf("render = %q, want forward digits then backward letters", out)
	}
}

// graphOf is the 1F1B event graph of plan over minibatches [start, end).
func graphOf(t *testing.T, plan *partition.Plan, start, end int) *EventGraph {
	t.Helper()
	g, err := Graph(Assign(plan), PipeDream1F1B, start, end)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wantViolation fails t unless Validate rejects tl naming want.
func wantViolation(t *testing.T, tl *Timeline, g *EventGraph, want string) {
	t.Helper()
	if err := Validate(tl, g); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want an error naming %q", err, want)
	}
}

func TestValidateCatchesBadRouting(t *testing.T) {
	tl := &Timeline{Workers: 3, Horizon: 10}
	tl.Ops = []Op{
		{Worker: 0, Stage: 0, Minibatch: 0, Kind: Forward, Start: 0, End: 1},
		{Worker: 2, Stage: 1, Minibatch: 0, Kind: Forward, Start: 1, End: 2},
		{Worker: 2, Stage: 1, Minibatch: 0, Kind: Backward, Start: 2, End: 4},
		{Worker: 1, Stage: 0, Minibatch: 0, Kind: Backward, Start: 4, End: 6}, // wrong replica!
	}
	wantViolation(t, tl, graphOf(t, planWith(2, 1), 0, 1), "routed to worker 0")
}

func TestValidateCatchesBackwardBeforeForward(t *testing.T) {
	tl := &Timeline{Workers: 1, Horizon: 10}
	tl.Ops = []Op{
		{Worker: 0, Stage: 0, Minibatch: 0, Kind: Forward, Start: 2, End: 3},
		{Worker: 0, Stage: 0, Minibatch: 0, Kind: Backward, Start: 1, End: 2},
	}
	wantViolation(t, tl, graphOf(t, planWith(1), 0, 1), "loss predecessor F0")
}

func TestValidateCatchesOverAdmission(t *testing.T) {
	plan := planWith(1)
	tl := &Timeline{Workers: 1, Horizon: 10}
	// Two minibatches in flight at depth 1.
	tl.Ops = []Op{
		{Worker: 0, Stage: 0, Minibatch: 0, Kind: Forward, Start: 0, End: 1},
		{Worker: 0, Stage: 0, Minibatch: 1, Kind: Forward, Start: 1, End: 2},
		{Worker: 0, Stage: 0, Minibatch: 0, Kind: Backward, Start: 2, End: 3},
		{Worker: 0, Stage: 0, Minibatch: 1, Kind: Backward, Start: 3, End: 4},
	}
	wantViolation(t, tl, graphOf(t, plan.AtDepth(1), 0, 2), "order predecessor B0")
	if err := Validate(tl, graphOf(t, plan.AtDepth(2), 0, 2)); err != nil {
		t.Fatalf("depth 2 should pass: %v", err)
	}
}

func TestValidateCatchesMissingForward(t *testing.T) {
	tl := &Timeline{Workers: 1, Horizon: 10}
	tl.Ops = []Op{
		{Worker: 0, Stage: 0, Minibatch: 7, Kind: Backward, Start: 1, End: 2},
	}
	wantViolation(t, tl, graphOf(t, planWith(1), 7, 8), "F7 at stage 0 never runs")
}

func TestPolicyStrings(t *testing.T) {
	if PipeDream1F1B.String() != "1F1B" || GPipe.String() != "GPipe" {
		t.Fatal("policy strings wrong")
	}
	if Forward.String() != "F" || Backward.String() != "B" || SyncOp.String() != "S" {
		t.Fatal("op kind strings wrong")
	}
}
