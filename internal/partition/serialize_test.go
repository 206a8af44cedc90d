package partition

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pipedream/internal/modelzoo"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// diamondPlan prices a 4-stage diamond (0→{1,2}→3, sum join) over four
// one-layer stages — the smallest plan whose topology is not a chain.
func diamondPlan(t *testing.T) (*Plan, *profile.ModelProfile, *topology.Topology) {
	t.Helper()
	prof := syntheticProfile([]float64{1, 1, 1, 1}, []int64{8, 8, 8, 8}, []int64{8, 8, 8, 8})
	topo := topology.Flat(4, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{
		Stages: []StageSpec{
			{FirstLayer: 0, LastLayer: 0, Replicas: 1},
			{FirstLayer: 1, LastLayer: 1, Replicas: 1},
			{FirstLayer: 2, LastLayer: 2, Replicas: 1},
			{FirstLayer: 3, LastLayer: 3, Replicas: 1},
		},
		Graph: &StageGraph{
			Nodes: 4,
			Edges: []StageEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
			Joins: []JoinOp{JoinNone, JoinNone, JoinNone, JoinSum},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan, prof, topo
}

// TestPlanJSONGraphRoundTrip pins that WriteJSON/ReadJSON preserve the
// stage dataflow of a graph-shaped plan: edges, join ops, sinks, and the
// dag(...) ConfigString all survive the trip.
func TestPlanJSONGraphRoundTrip(t *testing.T) {
	plan, prof, topo := diamondPlan(t)
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()), prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph == nil {
		t.Fatal("graph lost in round trip")
	}
	if got.ConfigString() != plan.ConfigString() {
		t.Fatalf("ConfigString changed: %q vs %q", got.ConfigString(), plan.ConfigString())
	}
	if len(got.Graph.Edges) != len(plan.Graph.Edges) {
		t.Fatalf("edges changed: %v vs %v", got.Graph.Edges, plan.Graph.Edges)
	}
	for i, e := range plan.Graph.Edges {
		if got.Graph.Edges[i] != e {
			t.Fatalf("edge %d changed: %v vs %v", i, got.Graph.Edges[i], e)
		}
	}
	if got.Graph.Join(3) != JoinSum {
		t.Fatalf("join op lost: %v", got.Graph.Join(3))
	}
	gs, ps := got.Graph.Sinks(), plan.Graph.Sinks()
	if len(gs) != len(ps) || gs[0] != ps[0] {
		t.Fatalf("sinks changed: %v vs %v", gs, ps)
	}
	if got.Depth != plan.Depth || got.BottleneckTime != plan.BottleneckTime {
		t.Fatalf("derived fields changed: %s vs %s", got, plan)
	}
}

// TestPlanJSONLinearGraphStaysCompact pins that a plan whose graph is the
// explicit linear chain serializes without edges — byte-compatible with
// pre-graph plan files.
func TestPlanJSONLinearGraphStaysCompact(t *testing.T) {
	prof := syntheticProfile([]float64{1, 1}, []int64{8, 8}, []int64{8, 8})
	topo := topology.Flat(2, 1e9, topology.V100)
	plan, err := NewPlan(prof, topo, PlanOptions{
		Stages: []StageSpec{
			{FirstLayer: 0, LastLayer: 0, Replicas: 1},
			{FirstLayer: 1, LastLayer: 1, Replicas: 1},
		},
		Graph: NewLinear(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"edges"`)) {
		t.Fatalf("linear graph serialized edges:\n%s", buf.String())
	}
	if _, err := ReadJSON(bytes.NewReader(buf.Bytes()), prof, topo); err != nil {
		t.Fatal(err)
	}
}

// TestPlanJSONRejectsJoinsWithoutEdges pins the malformed-file guard.
func TestPlanJSONRejectsJoinsWithoutEdges(t *testing.T) {
	prof := syntheticProfile([]float64{1}, []int64{4}, []int64{4})
	topo := topology.Flat(1, 1e9, topology.V100)
	in := `{"model":"synthetic","stages":[{"FirstLayer":0,"LastLayer":0,"Replicas":1}],"joins":[1]}`
	if _, err := ReadJSON(bytes.NewBufferString(in), prof, topo); err == nil {
		t.Fatal("joins without edges must fail")
	}
}

// FuzzPlanJSON hammers ReadJSON with arbitrary bytes (seeded with real
// linear and graph-shaped plan files): it must never panic, and any plan
// it accepts must itself round-trip through WriteJSON/ReadJSON with an
// unchanged ConfigString and Depth.
func FuzzPlanJSON(f *testing.F) {
	prof := syntheticProfile([]float64{1, 1, 1, 1}, []int64{8, 8, 8, 8}, []int64{8, 8, 8, 8})
	topo := topology.Flat(4, 1e9, topology.V100)

	// Seed corpus: a DP-chosen linear plan, the diamond, a two-head
	// fan-out, and two malformed shapes.
	lin, err := NewPlan(prof, topo, PlanOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lin.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	stages := []StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 1},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
		{FirstLayer: 3, LastLayer: 3, Replicas: 1},
	}
	diamond, err := NewPlan(prof, topo, PlanOptions{Stages: stages, Graph: &StageGraph{
		Nodes: 4,
		Edges: []StageEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
		Joins: []JoinOp{JoinNone, JoinNone, JoinNone, JoinSum},
	}})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := diamond.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	twoHead, err := NewPlan(prof, topo, PlanOptions{Stages: stages, Graph: &StageGraph{
		Nodes: 4,
		Edges: []StageEdge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := twoHead.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Add([]byte(`{"model":"synthetic","stages":[{"FirstLayer":0,"LastLayer":3,"Replicas":4}],"joins":[2]}`))
	f.Add([]byte(`{"model":"synthetic","stages":[],"edges":[{"From":5,"To":0}]}`))
	f.Add([]byte(`{"model":"synthetic","stages":[{"FirstLayer":0,"LastLayer":3,"Replicas":1}],"depth":0}`))
	f.Add([]byte(`{"model":"synthetic","stages":[{"FirstLayer":0,"LastLayer":3,"Replicas":1}],"depth":7}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadJSON(bytes.NewReader(data), prof, topo)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var out bytes.Buffer
		if err := plan.WriteJSON(&out); err != nil {
			t.Fatalf("accepted plan failed to serialize: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(out.Bytes()), prof, topo)
		if err != nil {
			t.Fatalf("accepted plan failed to round-trip: %v\n%s", err, out.String())
		}
		if again.ConfigString() != plan.ConfigString() || again.Depth != plan.Depth {
			t.Fatalf("round trip changed the plan: %q at depth %d vs %q at depth %d",
				again.ConfigString(), again.Depth, plan.ConfigString(), plan.Depth)
		}
		if plan.Depth < 1 {
			t.Fatalf("accepted a plan at depth %d", plan.Depth)
		}
	})
}

// TestPlanJSONKeepsItsDepth: a plan the memory constraint lowered below
// its own depth — GNMT-16 on four 1,400 MB devices — comes back from its
// file at the depth its planner chose, not at the one it rejected; a file
// with no depth comes back at the depth its stages' windows set, and one
// with a depth below 1 is refused.
func TestPlanJSONKeepsItsDepth(t *testing.T) {
	dev := topology.Device{Name: "1400MB", EffectiveFLOPS: topology.V100.EffectiveFLOPS, MemBytes: 1400 << 20}
	topo := &topology.Topology{Name: dev.Name, Device: dev, Levels: topology.ClusterA(1).Levels}
	prof := modelzoo.GNMT16(topology.V100, 64)
	plan, err := NewPlan(prof, topo, PlanOptions{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	unconstrained, err := NewPlan(prof, topo, PlanOptions{Stages: plan.Stages})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Depth >= unconstrained.Depth {
		t.Fatalf("plan %s at depth %d: the constraint did not lower its own depth %d", plan.ConfigString(), plan.Depth, unconstrained.Depth)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()), prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigString() != plan.ConfigString() || got.Depth != plan.Depth {
		t.Fatalf("read back %s at depth %d, wrote %s at depth %d", got.ConfigString(), got.Depth, plan.ConfigString(), plan.Depth)
	}
	if err := CheckMemory(got, prof, topo); err != nil {
		t.Fatalf("the plan read back does not fit: %v", err)
	}

	stages := `{"model":"GNMT-16","stages":[{"FirstLayer":0,"LastLayer":` + fmt.Sprint(prof.NumLayers()-1) + `,"Replicas":4}]`
	bare, err := ReadJSON(bytes.NewBufferString(stages+`}`), prof, topo)
	if err != nil {
		t.Fatal(err)
	}
	if w := bare.cover(bare.BottleneckTime / windowSlack); bare.Depth != w[0]/4 {
		t.Fatalf("a file with no depth reads back at depth %d, want %d (windows %v)", bare.Depth, w[0]/4, w)
	}
	if _, err := ReadJSON(bytes.NewBufferString(stages+`,"depth":0}`), prof, topo); err == nil {
		t.Fatal("a file at depth 0 must be refused")
	}
}

// TestPlanJSONKeepsItsWindows: the windows follow measured times, so a
// plan file carries them, and every process that reads it schedules the
// same table whatever its own profile measures. A file written on one
// profile and read on another with other times returns the written
// windows — and a depth lowered after the read runs on the reader's
// times. A file whose windows are not one per stage, do not match its
// depth, or that a predecessor could not feed is refused.
func TestPlanJSONKeepsItsWindows(t *testing.T) {
	stages := []StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 1},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
		{FirstLayer: 3, LastLayer: 3, Replicas: 1},
	}
	topo := topology.Flat(4, 1e9, topology.V100)
	acts := []int64{8, 8, 8, 8}
	writer := syntheticProfile([]float64{1, 1, 1, 1}, acts, acts)
	reader := syntheticProfile([]float64{1, 0.2, 0.2, 1}, acts, acts)
	written, err := NewPlan(writer, topo, PlanOptions{Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	own, err := NewPlan(reader, topo, PlanOptions{Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(written.Windows(), own.Windows()) {
		t.Fatalf("both profiles give windows %v; the test needs two", own.Windows())
	}
	var buf bytes.Buffer
	if err := written.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()), reader, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Windows(), written.Windows()) || got.Depth != written.Depth {
		t.Fatalf("read back windows %v at depth %d, wrote %v at depth %d", got.Windows(), got.Depth, written.Windows(), written.Depth)
	}
	lowered, ownLowered := *got, *own
	lowered.Depth, ownLowered.Depth = 1, 1
	if !slices.Equal(lowered.Windows(), ownLowered.Windows()) {
		t.Fatalf("at depth 1 the file's plan has windows %v, the reader's %v", lowered.Windows(), ownLowered.Windows())
	}

	for _, bad := range []string{
		`"depth":4,"windows":[4,3,1]`,   // one short
		`"depth":3,"windows":[4,3,2,1]`, // input window is not the depth's
		`"depth":4,"windows":[4,5,2,1]`, // stage 1 holds more than stage 0 feeds
		`"depth":4,"windows":[4,3,2,0]`, // an empty window
		`"windows":[4,3,2,1]`,           // windows without their depth
	} {
		file := `{"model":"synthetic","stages":[{"FirstLayer":0,"LastLayer":0,"Replicas":1},{"FirstLayer":1,"LastLayer":1,"Replicas":1},{"FirstLayer":2,"LastLayer":2,"Replicas":1},{"FirstLayer":3,"LastLayer":3,"Replicas":1}],` + bad + `}`
		if _, err := ReadJSON(bytes.NewBufferString(file), reader, topo); err == nil {
			t.Errorf("a file with %s was accepted", bad)
		}
	}
}
