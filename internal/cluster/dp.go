package cluster

import (
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// DPStep is the analytic model of one bulk-synchronous data-parallel
// iteration with wait-free backpropagation: gradients of each layer are
// sent as soon as its backward pass produces them, so the all_reduce
// overlaps with backward compute and the iteration stalls only for
// whatever synchronization time exceeds it:
//
//	step = fwd + max(bwd, allreduce(weights, workers))
//
// This is the baseline the paper's Figure 1 measures and Table 1 compares
// against.
type DPStep struct {
	FwdTime  float64
	BwdTime  float64
	SyncTime float64
	StepTime float64
	// CommStallFrac is the fraction of the step spent stalled on
	// communication — the y-axis of Figure 1.
	CommStallFrac float64
	// Throughput is aggregate samples/second across all workers.
	Throughput float64
}

// DataParallelBSP evaluates BSP data parallelism for a profile on a
// topology using `workers` workers (weak scaling: each worker processes
// one profile-sized minibatch per step).
func DataParallelBSP(prof *profile.ModelProfile, topo *topology.Topology, workers int) DPStep {
	var fwd, bwd float64
	for _, l := range prof.Layers {
		fwd += l.FwdTime
		bwd += l.BwdTime
	}
	sync := topo.AllReduceTime(prof.TotalWeightBytes(), workers)
	step := fwd + bwd
	if sync > bwd {
		step = fwd + sync
	}
	compute := fwd + bwd
	d := DPStep{FwdTime: fwd, BwdTime: bwd, SyncTime: sync, StepTime: step}
	d.CommStallFrac = (step - compute) / step
	d.Throughput = float64(workers) * float64(prof.MinibatchSize) / step
	return d
}

// DataParallelASP evaluates asynchronous data parallelism: no
// synchronization stalls at all (and correspondingly degraded statistical
// efficiency, which the statseff package measures).
func DataParallelASP(prof *profile.ModelProfile, topo *topology.Topology, workers int) DPStep {
	var fwd, bwd float64
	for _, l := range prof.Layers {
		fwd += l.FwdTime
		bwd += l.BwdTime
	}
	step := fwd + bwd
	return DPStep{
		FwdTime: fwd, BwdTime: bwd, SyncTime: 0, StepTime: step,
		CommStallFrac: 0,
		Throughput:    float64(workers) * float64(prof.MinibatchSize) / step,
	}
}

// DPBytesPerSample returns the bytes each worker communicates per training
// sample under data parallelism: 2(m-1)/m of the model weights per
// minibatch — the DP bars of Figure 17.
func DPBytesPerSample(prof *profile.ModelProfile, workers int) float64 {
	return topology.RingBytes(prof.TotalWeightBytes(), workers) / float64(prof.MinibatchSize)
}

// PipelineBytesPerSample returns the bytes per training sample for a
// pipeline plan: activations and gradients crossing each stage boundary
// (per minibatch) plus per-worker weight sync within replicated stages —
// the best-non-DP bars of Figure 17. The returned value is the maximum
// over workers (the most-loaded worker's traffic), matching how the paper
// compares against DP's per-worker traffic.
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
