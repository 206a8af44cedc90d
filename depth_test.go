package pipedream

import (
	"fmt"
	"math/rand"
	"testing"

	"pipedream/internal/cluster"
	"pipedream/internal/data"
	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// TestMemoryConstrainedPlanRunsAtItsDepth: a plan NewPlan builds under the
// device-memory constraint is checked, simulated and trained at the depth
// the constraint chose — the deepest that fits, and no deeper than the
// depth whose windows cover every cycle, which the same stages get with
// no constraint. CheckMemory accepts it; the simulator keeps the 1F1B
// invariants with at most Depth minibatches in flight per input replica
// and a peak within the device; each runtime worker's staleness stays
// within its stage's window. The GNMT-16 rows are the abl-memory
// experiment's devices; on the VGG-16 rows no optimizer plan fits, and
// the model-parallel fallback fits only at depth 1. Of the two, the
// constraint returns the one priced higher at the depth it fits.
func TestMemoryConstrainedPlanRunsAtItsDepth(t *testing.T) {
	device := func(memMB int64) *topology.Topology {
		dev := topology.Device{Name: fmt.Sprintf("%dMB", memMB),
			EffectiveFLOPS: topology.V100.EffectiveFLOPS, MemBytes: memMB << 20}
		return &topology.Topology{Name: dev.Name, Device: dev, Levels: topology.ClusterA(1).Levels}
	}
	gnmt := modelzoo.GNMT16(topology.V100, 64)
	vgg, err := modelzoo.ByName("VGG-16", topology.V100, modelzoo.PaperBatchSize("VGG-16"))
	if err != nil {
		t.Fatal(err)
	}
	// A five-layer MLP priced with 100 MB of weights per layer: too heavy
	// to replicate, so the optimizer picks a straight pipeline that a
	// 500 MB device holds only three minibatches deep, at 16.1 samples/s.
	// The model-parallel split puts its two-layer stage last, at window 1,
	// and fits at its own depth 4, at 16.67.
	mlp := func() *Sequential {
		rng := rand.New(rand.NewSource(5))
		return nn.NewSequential(nn.NewDense(rng, "fc1", 4, 8), nn.NewTanh("t1"),
			nn.NewDense(rng, "fc2", 8, 8), nn.NewTanh("t2"), nn.NewDense(rng, "fc3", 8, 3))
	}
	heavy := &ModelProfile{Model: "mlp", MinibatchSize: 1, InputBytes: 1 << 20}
	for range 5 {
		heavy.Layers = append(heavy.Layers, LayerProfile{Name: "l", FwdTime: 0.01, BwdTime: 0.02,
			ActivationBytes: 1 << 20, WeightBytes: 100 << 20})
	}
	flat := topology.Flat(4, 1e9, topology.Device{Name: "500MB", EffectiveFLOPS: 1e12, MemBytes: 500 << 20})

	for _, c := range []struct {
		name    string
		prof    *ModelProfile
		topo    *topology.Topology
		depth   int
		factory func() *Sequential // non-nil: also train the plan
	}{
		{"GNMT-16/16384MB", gnmt, device(16384), 7, nil},
		{"GNMT-16/1400MB", gnmt, device(1400), 3, nil},
		{"GNMT-16/1100MB", gnmt, device(1100), 3, nil},
		{"GNMT-16/900MB", gnmt, device(900), 2, nil},
		{"VGG-16/2478MB", vgg, device(2478), 1, nil},
		{"VGG-16/3296MB", vgg, device(3296), 1, nil},
		{"MLP/500MB", heavy, flat, 4, mlp},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := NewPlan(c.prof, c.topo, PlanOptions{Memory: true})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Depth != c.depth {
				t.Fatalf("plan %s at depth %d, want %d", plan.ConfigString(), plan.Depth, c.depth)
			}
			if err := partition.CheckMemory(plan, c.prof, c.topo); err != nil {
				t.Fatalf("CheckMemory rejects the plan NewPlan fitted at depth %d: %v", plan.Depth, err)
			}
			own, err := NewPlan(c.prof, c.topo, PlanOptions{Stages: plan.Stages})
			if err != nil {
				t.Fatal(err)
			}
			deeper := *plan
			deeper.Depth++
			if plan.Depth > own.Depth || deeper.Depth <= own.Depth && partition.CheckMemory(&deeper, c.prof, c.topo) == nil {
				t.Fatalf("plan %s at depth %d: its windows cover every cycle at depth %d, and it fits at %d: %v",
					plan.ConfigString(), plan.Depth, own.Depth, deeper.Depth, partition.CheckMemory(&deeper, c.prof, c.topo))
			}

			const mbs = 48
			res, err := cluster.Simulate(cluster.Config{Profile: c.prof, Topo: c.topo, Plan: plan,
				Policy: schedule.PipeDream1F1B, Minibatches: mbs, RecordTimeline: true})
			if err != nil {
				t.Fatal(err)
			}
			g, err := schedule.Graph(schedule.Assign(plan), schedule.PipeDream1F1B, 0, mbs)
			if err != nil {
				t.Fatal(err)
			}
			if err := schedule.Validate(res.Timeline, g); err != nil {
				t.Fatalf("simulated at another depth than the plan's %d: %v", plan.Depth, err)
			}
			for s, peak := range res.PeakMemory {
				if peak > c.topo.Device.MemBytes {
					t.Fatalf("stage %d simulated at a %d MB peak on a %s device", s, peak>>20, c.topo.Device.Name)
				}
			}

			if c.factory == nil {
				return
			}
			p, err := NewPipeline(PipelineOptions{
				ModelFactory: c.factory,
				Plan:         plan,
				Loss:         SoftmaxCrossEntropy,
				NewOptimizer: func() Optimizer { return NewSGD(0.05, 0, 0) },
				Mode:         WeightStashing,
				Metrics:      NewMetricsRegistry(), // per-worker staleness in the report
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			rep, err := p.Train(data.NewBlobs(7, 3, 4, 4, 24), 24)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Stages) != plan.Workers {
				t.Fatalf("report has %d workers' statistics, want %d", len(rep.Stages), plan.Workers)
			}
			windows := plan.Windows()
			for _, st := range rep.Stages {
				r := plan.Stages[st.Stage].Replicas
				if limit := (windows[st.Stage]+r-1)/r - 1; st.MaxStaleness > limit {
					t.Fatalf("stage %d replica %d trained with staleness %d, window %d over %d replicas",
						st.Stage, st.Replica, st.MaxStaleness, windows[st.Stage], r)
				}
			}
		})
	}
}
