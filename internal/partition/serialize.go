package partition

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// planJSON is the serialized form of a Plan (derived fields are
// recomputed on load against a profile/topology, so files stay small and
// can't go stale). Edges/Joins carry the stage dataflow for graph-shaped
// plans; both absent means the linear chain. Depth and Windows are the
// plan's; absent, the reading profile's times set them.
type planJSON struct {
	Model   string      `json:"model"`
	Stages  []StageSpec `json:"stages"`
	Edges   []StageEdge `json:"edges,omitempty"`
	Joins   []JoinOp    `json:"joins,omitempty"`
	Depth   *int        `json:"depth,omitempty"`
	Windows []int       `json:"windows,omitempty"`
}

// WriteJSON serializes the plan's stage assignment, depth and windows,
// including the DAG topology (edges and join ops) when the plan is
// graph-shaped, so ReadJSON gives any profile the same dataflow and table.
func (p *Plan) WriteJSON(w io.Writer) error {
	pj := planJSON{Model: p.Model, Stages: p.Stages, Depth: &p.Depth, Windows: p.Windows()}
	if g := p.Graph; !g.IsLinear() {
		pj.Edges = g.Edges
		pj.Joins = g.Joins
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}

// ReadJSON loads a stage assignment and re-evaluates it against the given
// profile and topology, recomputing stage times and the throughput
// prediction at the plan's windows. Depth and windows come back as written (absent, the
// profile sets them); a depth below 1 and windows fit would change are
// refused. The profile's model name and layer count must match the
// plan's. A plan with serialized edges comes back graph-shaped, validated
// as a DAG.
func ReadJSON(r io.Reader, prof *profile.ModelProfile, topo *topology.Topology) (*Plan, error) {
	var pj planJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("partition: decode plan: %w", err)
	}
	if pj.Model != prof.Model {
		return nil, fmt.Errorf("partition: plan is for model %q, profile is %q", pj.Model, prof.Model)
	}
	if n := len(pj.Stages); n > 0 && pj.Stages[n-1].LastLayer+1 != prof.NumLayers() {
		return nil, fmt.Errorf("partition: plan for %q covers %d layers, profile %q has %d", pj.Model, pj.Stages[n-1].LastLayer+1, prof.Model, prof.NumLayers())
	}
	opts := PlanOptions{Stages: pj.Stages}
	if len(pj.Edges) > 0 {
		opts.Graph = &StageGraph{Nodes: len(pj.Stages), Edges: pj.Edges, Joins: pj.Joins}
	} else if len(pj.Joins) > 0 {
		return nil, fmt.Errorf("partition: plan has join ops but no edges")
	}
	if pj.Depth != nil && *pj.Depth < 1 {
		return nil, fmt.Errorf("partition: plan has depth %d", *pj.Depth)
	}
	plan, err := NewPlan(prof, topo, opts)
	if err != nil {
		return nil, err
	}
	if pj.Depth != nil {
		plan.Depth = *pj.Depth
	}
	if pj.Windows != nil && (pj.Depth == nil || len(pj.Windows) != len(plan.Stages) || !slices.Equal(plan.fit(slices.Clone(pj.Windows)), pj.Windows)) {
		return nil, fmt.Errorf("partition: plan windows %v do not fit its stages at depth %d", pj.Windows, plan.Depth)
	}
	plan.windows = pj.Windows
	plan.price()
	return plan, nil
}
