package partition

import (
	"fmt"

	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// StageMemory estimates the peak per-worker memory of each stage of a
// plan, in bytes: the stage's weights (one version per in-flight
// minibatch, plus the live copy) and the activation stash (stage input
// plus every layer output) for each in-flight minibatch. The in-flight
// bound per stage is the plan's Depth — the §3.3 worst case of one
// <weights, activations> version per admitted minibatch.
func StageMemory(plan *Plan, prof *profile.ModelProfile) []int64 {
	out := make([]int64, len(plan.Stages))
	for i, st := range plan.Stages {
		out[i] = stageMemory(prof, st, plan.Depth)
	}
	return out
}

// stageMemory is one stage's peak per-worker bytes with depth minibatches
// in flight: depth+1 weight versions and depth activation stashes.
func stageMemory(prof *profile.ModelProfile, st StageSpec, depth int) int64 {
	weights := prof.WeightRange(st.FirstLayer, st.LastLayer)
	var acts int64
	for l := st.FirstLayer; l <= st.LastLayer; l++ {
		acts += prof.Layers[l].ActivationBytes
	}
	if st.FirstLayer > 0 {
		acts += prof.Layers[st.FirstLayer-1].ActivationBytes
	} else {
		acts += prof.InputBytes
	}
	inflight := int64(depth)
	return weights*(1+inflight) + inflight*acts
}

// CheckMemory verifies that every stage of a plan, run at the plan's
// Depth, fits in the device memory of the topology's accelerators,
// returning a descriptive error for the first stage that does not.
func CheckMemory(plan *Plan, prof *profile.ModelProfile, topo *topology.Topology) error {
	for i, m := range StageMemory(plan, prof) {
		if m > topo.Device.MemBytes {
			return fmt.Errorf("partition: stage %d needs %.1f GB, %s has %.1f GB",
				i, float64(m)/(1<<30), topo.Device.Name, float64(topo.Device.MemBytes)/(1<<30))
		}
	}
	return nil
}

// constrainMemory enforces the device-memory constraint the paper's
// partitioning algorithm takes as input (§3.1): if the unconstrained
// optimum does not fit at its Depth, it lowers the Depth toward the
// memory bound (trading throughput for footprint, as §5.5's Figure 18
// discussion describes) and, failing that, does the same for the
// straight model-parallel pipeline, whose stages hold less each. The
// returned plan fits at its Depth.
func constrainMemory(plan *Plan, prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	mp, err := ModelParallel(prof, topo)
	if err != nil {
		return nil, err
	}
	for _, p := range []*Plan{plan, mp} {
		for err = CheckMemory(p, prof, topo); err != nil && p.Depth > 1; err = CheckMemory(p, prof, topo) {
			p.Depth--
		}
		if err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("partition: no memory-feasible configuration: %w", err)
}
