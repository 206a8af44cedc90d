package cluster

import (
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// SyncStall is the fraction of a data-parallel step each replica spends
// stalled on its gradient all_reduce — the y-axis of Figure 1. dp is a
// one-stage plan (partition.DataParallel, or NewPlan with one stage of R
// replicas); the step is the period the planner prices, R·StageTimes[0],
// and the stall is whatever of it is not compute. A sync that hides
// entirely reads as 0, not as a rounding error below it.
func SyncStall(prof *profile.ModelProfile, dp *partition.Plan) float64 {
	st := dp.Stages[0]
	step := float64(st.Replicas) * dp.StageTimes[0]
	return max(0, 1-prof.TimeRange(st.FirstLayer, st.LastLayer)/step)
}

// PipelineBytesPerSample returns the bytes per training sample for a
// plan: activations and gradients crossing each stage boundary (per
// minibatch) plus per-worker weight sync within replicated stages — the
// bars of Figure 17, a one-stage plan's being data parallelism's. The
// returned value is the maximum over workers (the most-loaded worker's
// traffic), matching how the paper compares against DP's per-worker
// traffic.
func PipelineBytesPerSample(prof *profile.ModelProfile, stages []partition.StageSpec) float64 {
	var worst float64
	for i, st := range stages {
		var bytes float64
		// Boundary traffic: activations in/out and gradients in/out.
		// Each replica handles 1/Replicas of the minibatches.
		if i > 0 {
			bytes += 2 * float64(prof.Layers[st.FirstLayer-1].ActivationBytes) / float64(st.Replicas)
		}
		if i < len(stages)-1 {
			bytes += 2 * float64(prof.Layers[st.LastLayer].ActivationBytes) / float64(st.Replicas)
		}
		bytes += topology.RingBytes(prof.WeightRange(st.FirstLayer, st.LastLayer), st.Replicas)
		if bytes > worst {
			worst = bytes
		}
	}
	return worst / float64(prof.MinibatchSize)
}
