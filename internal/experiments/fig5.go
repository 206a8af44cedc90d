package experiments

import (
	"fmt"

	"pipedream/internal/cluster"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

func init() {
	register("fig5", "Temporal overlap of computation and communication (per-worker)", fig5)
}

// fig5 reproduces Figure 5's point: activation/gradient transfers are
// asynchronous and overlap the sender's compute on a *different*
// minibatch ("completely independent with no dependency edges"). For each
// worker of a GNMT-8 pipeline it measures the fraction of outbound
// transfer time during which the sender was busy computing.
func fig5(quick bool) ([]*Table, error) {
	minibatches := 160
	if quick {
		minibatches = 64
	}
	// A balanced 4-stage pipeline in the paper's regime: transfers are a
	// noticeable but small fraction of stage time (comm latency beyond
	// that the stages' windows must cover, or bubbles open — the
	// situation PipeDream's partitioner avoids by construction).
	topo := topology.Flat(4, 1e9, topology.V100)
	// The zero-communication ideal isolates what the transfers cost.
	ideal := editLayers(timelineProfile(4), 0, 3, func(l *profile.LayerProfile) { l.FwdTime, l.BwdTime = 0.010, 0.020 })
	prof := editLayers(ideal, 0, 3, func(l *profile.LayerProfile) { l.ActivationBytes = 2 << 20 }) // 2 MB → 2 ms on 1 GB/s
	prof.InputBytes = 2 << 20
	plan, err := partition.ModelParallel(prof, topo) // straight 4-stage
	if err != nil {
		return nil, err
	}
	res, err := cluster.Simulate(cluster.Config{
		Profile: prof, Topo: topo, Plan: plan,
		Policy: schedule.PipeDream1F1B, Minibatches: minibatches,
		RecordTimeline: true,
	})
	if err != nil {
		return nil, err
	}
	idealPlan, err := partition.ModelParallel(ideal, topo)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig5", Title: "Compute/communication overlap, balanced 4-stage pipeline (1 GB/s links)",
		Header: []string{"worker", "transfers", "total transfer time", "overlapped with compute"}}
	idealTput := t.price("zero-communication ideal", ideal, topo, idealPlan)
	// Measure the steady state only: the pipeline fill and drain leave
	// workers idle around their transfers.
	warm := res.CompletionTimes[minibatches/4]
	cool := res.CompletionTimes[3*minibatches/4]
	for w := range plan.Workers {
		busy := res.Timeline.WorkerOps(w)
		var total, overlapped float64
		count := 0
		for _, tr := range res.Transfers {
			if tr.Worker != w || tr.Start < warm || tr.End > cool {
				continue
			}
			count++
			total += tr.End - tr.Start
			for _, op := range busy {
				lo, hi := tr.Start, tr.End
				if op.Start > lo {
					lo = op.Start
				}
				if op.End < hi {
					hi = op.End
				}
				if hi > lo {
					overlapped += hi - lo
				}
			}
		}
		if count == 0 {
			t.AddRow(fmt.Sprintf("%d", w), "0", "-", "-")
			continue
		}
		frac := overlapped / total
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", count),
			fmt.Sprintf("%.4fs", total), pct(frac))
		_ = frac
	}
	retained := res.Throughput / idealTput
	t.AddNote("sends are asynchronous: transfers overlap the sender's compute on other minibatches")
	t.AddNote("(the remainder lands in the small latency-induced gaps of the steady state);")
	t.AddNote("net cost of ALL communication: throughput is %.0f%% of the zero-communication ideal", retained*100)
	if retained < 0.85 {
		return nil, fmt.Errorf("fig5: communication cost %.0f%% of throughput — overlap broken", 100*(1-retained))
	}
	return []*Table{t}, nil
}
