package topology

// This file models communication costs on a hierarchical topology. Every
// time and byte count a plan is charged — by the partitioner's search and
// its evaluation of a plan, and by the cluster simulator — comes from the
// three exported functions here:
//
//   - RingBytes: what each participant of an n-way ring all_reduce sends,
//     2(n-1)/n of the payload.
//
//   - AllReduceTime: the per-update stall a worker sees synchronizing
//     weights across a replication group, modelled as a hierarchical
//     all_reduce (NCCL-style): one ring phase per level the group spans,
//     RingBytes over that level's bandwidth (a shared bus, a PCIe tree,
//     divides it among the participants). Crossing into a slower level
//     adds its full phase, which is why data-parallel overheads spike
//     when training scales past one server (Figure 1's second takeaway).
//
//   - P2PTime: a single activation/gradient transfer between consecutive
//     pipeline stages, one flow over the link of the slowest level it
//     crosses.

// capacityThrough returns the number of workers contained in one component
// of level k (product of widths of levels ≤ k).
func (t *Topology) capacityThrough(k int) int {
	n := 1
	for i := 0; i <= k && i < len(t.Levels); i++ {
		n *= t.Levels[i].Width
	}
	return n
}

// levelSpanned returns the index of the innermost level whose component
// can contain a group of m workers, or the outermost level if none can.
func (t *Topology) levelSpanned(m int) int {
	for k := range t.Levels {
		if m <= t.capacityThrough(k) {
			return k
		}
	}
	return len(t.Levels) - 1
}

// RingBytes returns the bytes each of n participants sends in a ring
// all_reduce of `bytes`: 2(n-1)/n of the payload, 0 for n ≤ 1.
func RingBytes(bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	return 2 * float64(n-1) / float64(n) * float64(bytes)
}

// ringTime returns the time of one ring all_reduce phase of `bytes` among
// n participants over level's links: RingBytes / beff, where beff is the
// level bandwidth, divided by n when level 0 is a shared bus.
func (t *Topology) ringTime(level int, bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	lvl := t.Levels[level]
	beff := lvl.Bandwidth
	if level == 0 && lvl.Shared {
		beff /= float64(n)
	}
	return RingBytes(bytes, n) / beff
}

// linkTime returns the time one point-to-point message of `bytes` takes
// over level's link.
func (t *Topology) linkTime(level int, bytes int64) float64 {
	if bytes == 0 {
		return 0
	}
	return float64(bytes) / t.Levels[level].Bandwidth
}

// AllReduceTime returns the per-update time for hierarchically
// all_reducing `bytes` of gradients across a group of m workers: the sum
// of ringTime over the levels the group spans, each with the group's
// participant count at that level.
func (t *Topology) AllReduceTime(bytes int64, m int) float64 {
	if m <= 1 || bytes == 0 {
		return 0
	}
	total := 0.0
	remaining := m
	for k, lvl := range t.Levels {
		if remaining <= 1 {
			break
		}
		total += t.ringTime(k, bytes, min(remaining, lvl.Width))
		remaining = (remaining + lvl.Width - 1) / lvl.Width
	}
	return total
}

// P2PTime returns the transfer time for one point-to-point message of
// `bytes` between two workers whose combined placement spans m workers:
// linkTime at the level the group spans.
func (t *Topology) P2PTime(bytes int64, m int) float64 {
	return t.linkTime(t.levelSpanned(m), bytes)
}
