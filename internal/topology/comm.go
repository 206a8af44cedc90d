package topology

// This file models communication costs on a hierarchical topology. Two
// primitives cover everything PipeDream needs:
//
//   - AllReduceTime: the per-update stall a worker sees synchronizing
//     weights across a replication group, modelled as a hierarchical
//     all_reduce (NCCL-style): a ring phase inside each level, then a
//     ring across level components, each phase moving 2(n-1)/n of the
//     payload over that level's links. Shared bus levels (PCIe trees)
//     divide their bandwidth among the participants. Crossing into a
//     slower level adds its full phase, which is why data-parallel
//     overheads spike when training scales past one server (Figure 1's
//     second takeaway).
//
//   - P2PTime: a single activation/gradient transfer between consecutive
//     pipeline stages, one point-to-point flow at the full bandwidth of
//     the slowest link it crosses.

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

// LinkBandwidth returns the bandwidth of the level a group of m workers
// spans — the slowest link its traffic must cross.
func (t *Topology) LinkBandwidth(m int) float64 {
	return t.Levels[t.levelSpanned(m)].Bandwidth
}

// AllReduceTime returns the per-update time for hierarchically
// all_reducing `bytes` of gradients across a group of m workers: the sum
// over the levels the group spans of a ring phase 2(n_k-1)/n_k ·
// bytes/beff_k, where n_k is the participant count at level k and beff_k
// the level bandwidth (divided by participants for shared buses).
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
		n := lvl.Width
		if remaining < n {
			n = remaining
		}
		if n > 1 {
			beff := lvl.Bandwidth
			if k == 0 && lvl.Shared {
				beff /= float64(n)
			}
			total += 2 * float64(n-1) / float64(n) * float64(bytes) / beff
		}
		remaining = (remaining + lvl.Width - 1) / lvl.Width
	}
	return total
}

// P2PTime returns the transfer time for one point-to-point message of
// `bytes` between two workers whose combined placement spans m workers.
func (t *Topology) P2PTime(bytes int64, m int) float64 {
	if bytes == 0 {
		return 0
	}
	return float64(bytes) / t.LinkBandwidth(m)
}
