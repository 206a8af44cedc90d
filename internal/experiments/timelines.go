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
	register("fig2", "Model-parallel utilization timeline (4 workers, bwd = 2x fwd)", fig2)
	register("fig3", "GPipe pipeline with flushes (4 workers, m=4 microbatches)", fig3)
	register("fig4", "PipeDream 1F1B startup and steady state (4 workers)", fig4)
	register("fig8", "1F1B-RR with a 2-1 replicated configuration", fig8)
}

// timelineProfile builds the idealized workload the paper's timeline
// figures use: `stages` equal layers, backward twice as long as forward,
// negligible communication.
func timelineProfile(layers int) *profile.ModelProfile {
	p := &profile.ModelProfile{Model: "timeline", MinibatchSize: 1, InputBytes: 1}
	for i := 0; i < layers; i++ {
		p.Layers = append(p.Layers, profile.LayerProfile{
			Name: fmt.Sprintf("l%d", i), FwdTime: 1, BwdTime: 2,
			ActivationBytes: 1, WeightBytes: 1,
		})
	}
	return p
}

// timelineRun simulates the four-stage timeline plan under policy, at
// depth (0: the plan's own).
func timelineRun(policy schedule.Policy, minibatches, depth int) (*cluster.Result, *partition.Plan, error) {
	prof := timelineProfile(4)
	topo := topology.Flat(4, 1e15, topology.V100)
	var specs []partition.StageSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, partition.StageSpec{FirstLayer: i, LastLayer: i, Replicas: 1})
	}
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: specs})
	if err != nil {
		return nil, nil, err
	}
	if depth > 0 {
		plan = plan.AtDepth(depth)
	}
	res, err := cluster.Simulate(cluster.Config{
		Profile: prof, Topo: topo, Plan: plan, Policy: policy,
		Minibatches: minibatches, RecordTimeline: true,
	})
	return res, plan, err
}

func timelineTable(id, title string, depth int, paperNote string) ([]*Table, error) {
	res, plan, err := timelineRun(schedule.PipeDream1F1B, 10, depth)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title,
		Header: []string{"metric", "value"}}
	t.AddRow("steady-state throughput (minibatch/unit)", f2(res.Throughput))
	t.AddRow("mean worker utilization", pct(res.MeanUtilization))
	t.AddRow("NOAM", fmt.Sprintf("%d", plan.Depth))
	t.AddNote("timeline (digits = forward mb, letters = backward mb, '.' = idle):")
	for _, line := range splitLines(res.Timeline.Render(1)) {
		t.AddNote("%s", line)
	}
	t.AddNote("paper shape: %s", paperNote)
	return []*Table{t}, nil
}

func fig2(quick bool) ([]*Table, error) {
	return timelineTable("fig2", "Model parallelism: one minibatch in flight", 1,
		"only one worker active at a time; utilization ~1/4 of PipeDream's")
}

func fig3(quick bool) ([]*Table, error) {
	res, plan, err := timelineRun(schedule.GPipe, 12, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig3", Title: "GPipe: m=4 microbatches per flush",
		Header: []string{"metric", "value"}}
	t.AddRow("steady-state throughput (minibatch/unit)", f2(res.Throughput))
	t.AddRow("mean worker utilization", pct(res.MeanUtilization))
	t.AddRow("microbatches per flush", fmt.Sprintf("%d", plan.Depth))
	t.AddNote("timeline (digits = forward mb, letters = backward mb, '.' = idle):")
	for _, line := range splitLines(res.Timeline.Render(1)) {
		t.AddNote("%s", line)
	}
	t.AddNote("paper shape: frequent pipeline flushes leave idle gaps between rounds")
	return []*Table{t}, nil
}

func fig4(quick bool) ([]*Table, error) {
	res, plan, err := timelineRun(schedule.PipeDream1F1B, 10, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig4", Title: "PipeDream 1F1B: startup then no steady-state stalls",
		Header: []string{"metric", "value"}}
	t.AddRow("steady-state throughput (minibatch/unit)", f2(res.Throughput))
	t.AddRow("mean worker utilization", pct(res.MeanUtilization))
	t.AddRow("NOAM (startup admissions)", fmt.Sprintf("%d", plan.Depth))
	t.AddNote("timeline (digits = forward mb, letters = backward mb, '.' = idle):")
	for _, line := range splitLines(res.Timeline.Render(1)) {
		t.AddNote("%s", line)
	}
	// Verify the 1F1B invariants on the rendered timeline.
	g, err := schedule.Graph(schedule.Assign(plan), schedule.PipeDream1F1B, 0, len(res.CompletionTimes))
	if err != nil {
		return nil, err
	}
	if err := schedule.Validate(res.Timeline, g); err != nil {
		return nil, fmt.Errorf("1F1B invariants: %w", err)
	}
	t.AddNote("1F1B invariants validated: ordering, routing, alternation, NOAM bound")
	t.AddNote("paper shape: after NOAM=4 startup forwards, every worker alternates 1F1B with no flushes")
	return []*Table{t}, nil
}

func fig8(quick bool) ([]*Table, error) {
	prof := timelineProfile(2)
	// First stage takes 2 units per pass, second stage 1 unit: replicate
	// the first stage twice (the paper's 2-1 example).
	prof.Layers[0].FwdTime, prof.Layers[0].BwdTime = 2, 2
	prof.Layers[1].FwdTime, prof.Layers[1].BwdTime = 1, 1
	topo := topology.Flat(3, 1e15, topology.V100)
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 2},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
	}})
	if err != nil {
		return nil, err
	}
	res, err := cluster.Simulate(cluster.Config{
		Profile: prof, Topo: topo, Plan: plan, Policy: schedule.PipeDream1F1B,
		Minibatches: 12, RecordTimeline: true,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig8", Title: "1F1B-RR: 2-1 configuration, round-robin routing",
		Header: []string{"metric", "value"}}
	t.AddRow("steady-state throughput (minibatch/unit)", f2(res.Throughput))
	t.AddRow("mean worker utilization", pct(res.MeanUtilization))
	t.AddRow("NOAM", fmt.Sprintf("%d", plan.Depth))
	t.AddNote("timeline (workers 0-1 replicate stage 0; worker 2 is stage 1):")
	for _, line := range splitLines(res.Timeline.Render(1)) {
		t.AddNote("%s", line)
	}
	// Check the even/odd routing the paper describes.
	for _, op := range res.Timeline.Ops {
		if op.Stage == 0 && op.Kind != schedule.SyncOp && op.Worker != op.Minibatch%2 {
			return nil, fmt.Errorf("fig8: minibatch %d on worker %d, want %d", op.Minibatch, op.Worker, op.Minibatch%2)
		}
	}
	t.AddNote("verified: even minibatches on replica 0, odd on replica 1; fwd and bwd co-located")
	t.AddNote("paper shape: both stages sustain the same aggregate rate; all workers stay busy")
	return []*Table{t}, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
