package partition

import (
	"fmt"

	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// Windows returns, per stage, how many consecutive minibatches the
// stage's replicas together keep between forward and backward under
// 1F1B. The input stage admits Depth per replica. Any other stage needs
// Noam(workers on the longest path from it to a sink, its replicas) per
// replica to keep that path busy — but never more than a predecessor
// forwards before it needs a gradient back, or the warm-up would wait for
// a minibatch that cannot arrive until one of the stage's own backwards
// has run. A replicated predecessor needs the gradients of a whole round
// before its all_reduce lets any replica move on, which can be
// replicas−1 minibatches past the one it waits for.
func (p *Plan) Windows() []int {
	g := p.Graph
	n := len(p.Stages)
	path := make([]int, n)
	for s := n - 1; s >= 0; s-- {
		for _, q := range g.Succs(s) {
			path[s] = max(path[s], path[q])
		}
		path[s] += p.Stages[s].Replicas
	}
	window := make([]int, n)
	window[0] = p.Depth * p.Stages[0].Replicas
	for s := 1; s < n; s++ {
		replicas := p.Stages[s].Replicas
		window[s] = Noam(path[s], replicas) * replicas
		for _, q := range g.Preds(s) {
			window[s] = min(window[s], window[q]-p.Stages[q].Replicas+1)
		}
		window[s] = max(window[s], 1)
	}
	return window
}

// WorkerMemory is the one memory price: the bytes one worker of stage st
// holds with inFlight minibatches between forward and backward. That is
// the stage's weights once per weight array, plus per in-flight minibatch
// the activation stash — the stage input and every layer output, or the
// stage input alone under recompute, which rebuilds the rest in the
// backward pass. The array count is what the runtime makes: under weight
// stashing one per in-flight minibatch but never fewer than two (the
// latest and the one the optimizer writes next); under GPipe, whose
// flush leaves no minibatch holding an old version, always two.
func WorkerMemory(prof *profile.ModelProfile, st StageSpec, inFlight int, gpipe, recompute bool) int64 {
	arrays := 2
	if !gpipe {
		arrays = max(inFlight, 2)
	}
	stash := prof.InputBytes
	if st.FirstLayer > 0 {
		stash = prof.Layers[st.FirstLayer-1].ActivationBytes
	}
	if !recompute {
		for l := st.FirstLayer; l <= st.LastLayer; l++ {
			stash += prof.Layers[l].ActivationBytes
		}
	}
	return prof.WeightRange(st.FirstLayer, st.LastLayer)*int64(arrays) + int64(inFlight)*stash
}

// StageMemory is the peak per-worker memory of each stage of a plan, in
// bytes, under 1F1B with weight stashing: WorkerMemory at the stage's
// window (Windows) shared among its replicas, ⌈window/replicas⌉ minibatches
// per worker — the §3.3 bound of one <weights, activations> version per
// minibatch the stage keeps in flight.
func StageMemory(plan *Plan, prof *profile.ModelProfile) []int64 {
	out := make([]int64, len(plan.Stages))
	for i, window := range plan.Windows() {
		st := plan.Stages[i]
		out[i] = WorkerMemory(prof, st, (window+st.Replicas-1)/st.Replicas, false, false)
	}
	return out
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
