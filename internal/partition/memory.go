package partition

import (
	"fmt"
	"math"
	"slices"

	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

const (
	// windowSlack: windows cover 1 % over the bottleneck; at it, 7 in 100,000
	// edge-bound 1-1 plans warm up a minibatch more and read 0.5–0.6 % over price.
	windowSlack = 0.99
	// replicaLinkCharge scales an edge with a replicated end, whose round-robin
	// transfers queue: at 1×, 7 of 8,000 random plans read 0.898–0.979 of price.
	replicaLinkCharge = 1.25
)

// Windows returns, per stage, the minibatches its replicas keep between
// forward and backward under 1F1B: cover's at the least period whose
// input window fits Depth, fitted, or a plan file's at the file's depth.
func (p *Plan) Windows() []int {
	if p.Pinned() {
		return slices.Clone(p.windows)
	}
	want := p.Depth * p.Stages[0].Replicas
	period := p.BottleneckTime / windowSlack
	window := p.cover(period)
	if window[0] > want {
		lo, hi := period, 1e9*period
		for range 64 {
			if mid := (lo + hi) / 2; p.cover(mid)[0] > want {
				lo = mid
			} else {
				hi = mid
			}
		}
		window = p.cover(hi)
	}
	return p.fit(window)
}

// Pinned reports whether Windows returns a plan file's windows, which
// hold at the file's depth, rather than windows derived from the plan's
// stage times: only then do the processes of one run, each pricing the
// file on its own measured profile, schedule the same table.
func (p *Plan) Pinned() bool {
	return len(p.windows) == len(p.Stages) && p.windows[0] == p.Depth*p.Stages[0].Replicas
}

// fit sets the input window to Depth per replica and caps each other
// stage at what its predecessors forward before needing a gradient back,
// rounded down to a multiple of its replicas where it holds one per
// replica, so that they all warm up alike.
func (p *Plan) fit(window []int) []int {
	window[0] = p.Depth * p.Stages[0].Replicas
	for s := 1; s < len(window); s++ {
		for _, q := range p.Graph.Preds(s) {
			window[s] = min(window[s], window[q]-p.Stages[q].Replicas+1)
		}
		if r := p.Stages[s].Replicas; window[s] >= r {
			window[s] -= window[s] % r
		}
		window[s] = max(window[s], 1)
	}
	return window
}

// WarmUp is the one warm-up rule: the forwards a replica of a stage with
// the given window and replica count runs before its first backward, when
// its first minibatch is the window's first-th (first < replicas) — its
// minibatches inside the window, and at least one.
func WarmUp(window, replicas, first int) int {
	return max(1, (window-first+replicas-1)/replicas)
}

// cover is the bottom-up window pass: each stage's least multiple of its
// replicas that holds a successor's window plus the rest of its round and
// spans, in periods, each cycle F_s→…→F_r→B_r→…→B_s→F_s through it: its
// passes (op = StageTimes·R), the edge, and the successor's passes and wait
// behind its window or round trip (reach). A part ending while the link is
// busy waits a period: the successor's, and under a replicated end the
// stage's own. Unreplicated ends that keep pace with the link may instead
// send the window as one convoy: activations back to back, then gradients.
func (p *Plan) cover(period float64) []int {
	window, reach := make([]int, len(p.Stages)), make([]float64, len(p.Stages))
	op := func(s int) float64 { return p.StageTimes[s] * float64(p.Stages[s].Replicas) }
	for s := len(p.Stages) - 1; s >= 0; s-- {
		r, need := p.Stages[s].Replicas, 1.0
		for i, e := range p.Graph.Edges {
			if e.From == s {
				q, rq, hold := e.To, p.Stages[e.To].Replicas, p.CommTimes[i]/2
				slot := func(t float64) float64 {
					if k := math.Ceil(t / period); t-(k-1)*period > period-p.CommTimes[i] {
						return k * period
					}
					return t
				}
				part, comm, own := op(q)+max(float64(window[q]-rq)*period, reach[q]), p.CommTimes[i], op(s)
				if r > 1 || rq > 1 {
					comm, own = comm*replicaLinkCharge, slot(own)
				}
				trip := comm + slot(part)
				cycle := math.Ceil((own + trip) / period)
				if k := 1 + math.Ceil(max(part, own)/hold); r == 1 && rq == 1 && max(op(s), op(q)) <= hold && k < cycle {
					cycle, trip = k, (k+1)*hold
				}
				reach[s] = max(reach[s], trip)
				need = max(need, float64(window[q]+r-1), cycle)
			}
		}
		window[s] = r * int(math.Ceil(need/float64(r)))
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
// partitioning algorithm takes as input (§3.1): the unconstrained optimum
// and the straight model-parallel pipeline, whose stages hold less each,
// each at the deepest Depth at which it fits (trading throughput for
// footprint, as §5.5's Figure 18 discussion describes); of those that fit,
// the one priced higher at its windows, the optimum on a tie.
func constrainMemory(plan *Plan, prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	mp, err := ModelParallel(prof, topo)
	if err != nil {
		return nil, err
	}
	var best *Plan
	for _, p := range []*Plan{plan, mp} {
		for err = CheckMemory(p, prof, topo); err != nil && p.Depth > 1; err = CheckMemory(p, prof, topo) {
			p = p.AtDepth(p.Depth - 1)
		}
		if err == nil && (best == nil || p.PredictedThroughput > best.PredictedThroughput) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("partition: no memory-feasible configuration: %w", err)
	}
	return best, nil
}
