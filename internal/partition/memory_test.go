package partition

import (
	"testing"

	"pipedream/internal/modelzoo"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

func TestStageMemoryAccounting(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1}, []int64{100, 100}, []int64{1000, 2000})
	prof.InputBytes = 50
	topo := topology.Flat(2, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{Stages: []StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 1},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mem := StageMemory(plan, prof) // depth 2: windows 2 and 1
	// Stage 0: weights 1000×2 arrays + 2×(input 50 + act 100) = 2300.
	if mem[0] != 2300 {
		t.Fatalf("stage 0 memory = %d, want 2300", mem[0])
	}
	// Stage 1: weights 2000×2 arrays + 1×(in-act 100 + act 100) = 4200.
	if mem[1] != 4200 {
		t.Fatalf("stage 1 memory = %d, want 4200", mem[1])
	}
}

func TestCheckMemoryBounds(t *testing.T) {
	prof := syntheticProfile([]float64{1}, []int64{100}, []int64{1 << 20})
	small := topology.Flat(1, 1e9, topology.Device{Name: "tiny", EffectiveFLOPS: 1e12, MemBytes: 1 << 10})
	big := topology.Flat(1, 1e9, topology.V100)
	plan, err := NewPlan(prof, small, PlanOptions{Stages: []StageSpec{{FirstLayer: 0, LastLayer: 0, Replicas: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMemory(plan, prof, small); err == nil {
		t.Fatal("1 MB of weights cannot fit a 1 KB device")
	}
	if err := CheckMemory(plan, prof, big); err != nil {
		t.Fatalf("V100 should fit: %v", err)
	}
}

func TestOptimizeWithMemoryFitsOnRealDevices(t *testing.T) {
	// Every paper model must produce a memory-feasible plan on the paper
	// clusters — a property the paper's optimizer guarantees (§3.1).
	for _, name := range modelzoo.Names() {
		topo := topology.ClusterA(4)
		prof, err := modelzoo.ByName(name, topo.Device, modelzoo.PaperBatchSize(name))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(prof, topo, PlanOptions{Memory: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDeepestFit(t, name, plan, prof, topo)
	}
}

// checkDeepestFit holds a plan NewPlan fitted to memory to the deepest
// depth that fits, no deeper than the depth whose windows cover every
// cycle at the plan's bottleneck.
func checkDeepestFit(t *testing.T, name string, plan *Plan, prof *profile.ModelProfile, topo *topology.Topology) {
	t.Helper()
	own := plan.cover(plan.BottleneckTime / windowSlack)[0] / plan.Stages[0].Replicas
	if plan.Depth < 1 || plan.Depth > own {
		t.Fatalf("%s: depth %d outside [1, %d], the depth whose windows cover every cycle", name, plan.Depth, own)
	}
	if err := CheckMemory(plan, prof, topo); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	deeper := *plan
	deeper.Depth++
	if deeper.Depth <= own && CheckMemory(&deeper, prof, topo) == nil {
		t.Fatalf("%s: %s fits at depth %d too, but runs at %d", name, plan.ConfigString(), deeper.Depth, plan.Depth)
	}
}

func TestOptimizeWithMemoryReducesDepthOnTinyDevice(t *testing.T) {
	// A device that fits the weights but not its own depth's stashes must
	// get a reduced depth (the Figure 18 trade: throughput for memory).
	prof := syntheticProfile(
		[]float64{1, 1, 1, 1},
		[]int64{64 << 20, 64 << 20, 64 << 20, 64 << 20}, // fat activations
		[]int64{1 << 20, 1 << 20, 1 << 20, 1 << 20},
	)
	prof.InputBytes = 64 << 20
	dev := topology.Device{Name: "small", EffectiveFLOPS: 1e12, MemBytes: 512 << 20}
	topo := topology.Flat(4, 1e12, dev)
	plan, err := NewPlan(prof, topo, PlanOptions{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	if own := plan.cover(plan.BottleneckTime / windowSlack)[0] / plan.Stages[0].Replicas; plan.Depth >= own && own > 1 {
		t.Fatalf("expected reduced depth, got %d of %d", plan.Depth, own)
	}
	checkDeepestFit(t, "tiny device", plan, prof, topo)
}

func TestOptimizeWithMemoryImpossible(t *testing.T) {
	prof := syntheticProfile([]float64{1}, []int64{8}, []int64{1 << 30})
	dev := topology.Device{Name: "nano", EffectiveFLOPS: 1e12, MemBytes: 1 << 20}
	topo := topology.Flat(2, 1e9, dev)
	if _, err := NewPlan(prof, topo, PlanOptions{Memory: true}); err == nil {
		t.Fatal("1 GB single layer cannot fit 1 MB devices at any depth")
	}
}
