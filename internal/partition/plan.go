package partition

import (
	"fmt"

	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// PlanOptions selects what NewPlan builds. The zero value asks for the
// classic PipeDream optimum: run the optimizer with no memory constraint.
type PlanOptions struct {
	// Sync names the gradient collective the plan is priced under.
	//
	// Deprecated: the only value is SyncRing, the zero value; the field is
	// kept for the benchmark harness and nothing reads it.
	Sync SyncModel
	// Memory enforces the device-memory constraint (§3.1): the chosen
	// plan and the straight model-parallel pipeline each run at the
	// deepest Depth at which they fit (each stage at its window), and the
	// one priced higher there is returned. Only meaningful when the
	// optimizer picks the stages.
	Memory bool
	// Stages, when non-nil, is an explicit stage assignment to price
	// instead of running the optimizer.
	Stages []StageSpec
	// Graph, when non-nil, is the stage dataflow DAG over Stages
	// (which must also be set — the optimizer only searches linear
	// chains). Nodes own the Stages entries of the same index;
	// layer ranges are laid out in topological node order.
	Graph *StageGraph
}

// NewPlan is the single entry point for building a Plan. With no options
// it runs the optimizer; with Stages it prices an explicit assignment;
// with Graph it prices a DAG-shaped assignment; with Memory it lowers
// Plan.Depth, its windows' otherwise, until the plan fits device memory,
// and prices the plan at that depth.
//
// (The paper-facing name would be partition.Plan, but Plan is the
// result type; Go does not allow a type and a function to share a
// name in one package.)
func NewPlan(prof *profile.ModelProfile, topo *topology.Topology, opts PlanOptions) (*Plan, error) {
	if opts.Graph != nil && opts.Stages == nil {
		return nil, fmt.Errorf("partition: PlanOptions.Graph requires explicit Stages (the optimizer only searches linear chains)")
	}
	if opts.Stages != nil {
		return evaluate(prof, topo, opts.Stages, opts.Graph)
	}
	plan, err := optimize(prof, topo)
	if err != nil {
		return nil, err
	}
	if !opts.Memory {
		return plan, nil
	}
	return constrainMemory(plan, prof, topo)
}
