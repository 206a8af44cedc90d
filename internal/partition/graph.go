package partition

import (
	"fmt"
	"sort"
	"strings"

	"pipedream/internal/tensor"
)

// JoinOp selects how a stage with several in-edges combines the
// activations arriving on them before running its own layers.
type JoinOp int

const (
	// JoinNone marks a stage with at most one in-edge (no combination).
	JoinNone JoinOp = iota
	// JoinSum adds the incoming activations elementwise (residual-style
	// skip connections). All in-edges must carry the same shape.
	JoinSum
	// JoinConcat concatenates the incoming activations along the feature
	// (last) dimension, in ascending order of the source stage index.
	JoinConcat
)

// String implements fmt.Stringer.
func (j JoinOp) String() string {
	switch j {
	case JoinSum:
		return "sum"
	case JoinConcat:
		return "concat"
	default:
		return "none"
	}
}

// Apply combines the activations arriving on a join stage's in-edges (two
// or more, in ascending source order); the parts stay the caller's. For
// JoinSum every part must share a shape, and the rest are added in order
// into the first, which the caller owns. For JoinConcat the parts are
// row-major [rows, features] tensors joined along the features into a new
// pooled tensor, and Apply returns each part's width (the split of the
// gradient on the way back). Training and serving both join here.
func (j JoinOp) Apply(parts []*tensor.Tensor) (*tensor.Tensor, []int, error) {
	switch j {
	case JoinSum:
		for _, p := range parts[1:] {
			if !parts[0].SameShape(p) {
				return nil, nil, fmt.Errorf("sum join over mismatched shapes %v vs %v", parts[0].Shape, p.Shape)
			}
		}
		for _, p := range parts[1:] {
			parts[0].Add(p)
		}
		return parts[0], nil, nil
	case JoinConcat:
		rows := parts[0].Dim(0)
		widths := make([]int, len(parts))
		total := 0
		for i, p := range parts {
			if p.NumDims() != 2 || p.Dim(0) != rows {
				return nil, nil, fmt.Errorf("concat join needs [rows, features] tensors with equal rows, got %v", p.Shape)
			}
			widths[i] = p.Dim(1)
			total += widths[i]
		}
		out := tensor.GetRaw(rows, total) // the parts' columns cover every row
		off := 0
		for i, p := range parts {
			w := widths[i]
			for r := 0; r < rows; r++ {
				copy(out.Data[r*total+off:r*total+off+w], p.Data[r*w:(r+1)*w])
			}
			off += w
		}
		return out, widths, nil
	default:
		return nil, nil, fmt.Errorf("join op %v with %d inputs", j, len(parts))
	}
}

// StageEdge is one typed activation edge of a StageGraph: the forward
// pass sends stage From's output activation to stage To, and the
// backward pass returns the matching gradient from To to From.
type StageEdge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// StageGraph describes the dataflow between the stages of a Plan as a
// DAG: nodes are stage indices (owning the plan's contiguous layer
// ranges, numbered in topological order), edges are activation
// transfers. NewLinear is the classic chain 0→1→…→n-1; a general
// StageGraph adds residual skips (fan-out + sum join), multi-task
// heads (several sinks), and arbitrary staged dataflow.
//
// Invariants (checked by Validate): every edge points forward
// (From < To), stage 0 is the only source (the input stage), every
// other stage has at least one in-edge, and Joins[i] names a real
// combination exactly when stage i has fan-in greater than one.
type StageGraph struct {
	// Nodes is the number of stages the graph spans; edges refer to
	// stage indices in [0, Nodes).
	Nodes int `json:"nodes"`
	// Edges is the activation dataflow, in any order.
	Edges []StageEdge `json:"edges"`
	// Joins[i] is how stage i combines its in-edges; it may be nil or
	// short when every stage has fan-in ≤ 1 (missing entries mean
	// JoinNone).
	Joins []JoinOp `json:"joins,omitempty"`
}

// NewLinear returns the straight-line graph 0→1→…→n-1 — the shape
// NewPlan gives a plan when no graph is asked for.
func NewLinear(n int) *StageGraph {
	g := &StageGraph{Nodes: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, StageEdge{From: i, To: i + 1})
	}
	return g
}

// Validate checks the graph invariants against a plan with nStages
// stages.
func (g *StageGraph) Validate(nStages int) error {
	if g == nil {
		return fmt.Errorf("partition: plan has no stage graph (NewPlan sets one; a Plan literal needs Graph: NewLinear(n))")
	}
	if g.Nodes != nStages {
		return fmt.Errorf("partition: graph has %d nodes, plan has %d stages", g.Nodes, nStages)
	}
	if g.Nodes < 1 {
		return fmt.Errorf("partition: graph has no nodes")
	}
	if len(g.Joins) > g.Nodes {
		return fmt.Errorf("partition: %d join ops for %d nodes", len(g.Joins), g.Nodes)
	}
	seen := make(map[StageEdge]bool, len(g.Edges))
	indeg := make([]int, g.Nodes)
	outdeg := make([]int, g.Nodes)
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= g.Nodes || e.To < 0 || e.To >= g.Nodes {
			return fmt.Errorf("partition: edge %d→%d out of range [0,%d)", e.From, e.To, g.Nodes)
		}
		if e.From >= e.To {
			return fmt.Errorf("partition: edge %d→%d is not forward (stages must be numbered topologically)", e.From, e.To)
		}
		if seen[e] {
			return fmt.Errorf("partition: duplicate edge %d→%d", e.From, e.To)
		}
		seen[e] = true
		indeg[e.To]++
		outdeg[e.From]++
	}
	for i := 0; i < g.Nodes; i++ {
		if i == 0 && indeg[i] > 0 {
			return fmt.Errorf("partition: stage 0 must be the input stage (has %d in-edges)", indeg[i])
		}
		if i > 0 && indeg[i] == 0 {
			return fmt.Errorf("partition: stage %d is unreachable (no in-edge)", i)
		}
		j := g.join(i)
		if indeg[i] > 1 && j != JoinSum && j != JoinConcat {
			return fmt.Errorf("partition: stage %d has fan-in %d but no join op", i, indeg[i])
		}
		if indeg[i] <= 1 && j != JoinNone {
			return fmt.Errorf("partition: stage %d has fan-in %d but join %v", i, indeg[i], j)
		}
	}
	return nil
}

// join returns the join op of node i, treating a short or nil Joins
// slice as all-JoinNone.
func (g *StageGraph) join(i int) JoinOp {
	if i < len(g.Joins) {
		return g.Joins[i]
	}
	return JoinNone
}

// Join returns how stage i combines its in-edges (JoinNone for fan-in
// ≤ 1).
func (g *StageGraph) Join(i int) JoinOp { return g.join(i) }

// Preds returns the stages with an edge into i, in ascending order —
// the order JoinConcat concatenates in.
func (g *StageGraph) Preds(i int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.To == i {
			out = append(out, e.From)
		}
	}
	sort.Ints(out)
	return out
}

// Succs returns the stages stage i feeds, in ascending order.
func (g *StageGraph) Succs(i int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.From == i {
			out = append(out, e.To)
		}
	}
	sort.Ints(out)
	return out
}

// Sinks returns the stages with no out-edges, in ascending order. Each
// sink computes a loss during training and emits predictions when
// serving; a linear graph has exactly one.
func (g *StageGraph) Sinks() []int {
	outdeg := make([]int, g.Nodes)
	for _, e := range g.Edges {
		outdeg[e.From]++
	}
	var out []int
	for i, d := range outdeg {
		if d == 0 {
			out = append(out, i)
		}
	}
	return out
}

// IsLinear reports whether the graph is exactly the straight chain
// 0→1→…→n-1.
func (g *StageGraph) IsLinear() bool {
	if len(g.Edges) != g.Nodes-1 {
		return false
	}
	next := make([]int, g.Nodes)
	for i := range next {
		next[i] = -1
	}
	for _, e := range g.Edges {
		if e.To != e.From+1 || next[e.From] != -1 {
			return false
		}
		next[e.From] = e.To
	}
	return true
}

// Ancestors returns the set of stages from which stage i is reachable,
// including i itself — the stages a request targeting sink i must
// traverse. The set is closed under predecessors, so every join inside
// it has all of its inputs inside it too.
func (g *StageGraph) Ancestors(i int) map[int]bool {
	act := map[int]bool{i: true}
	// Edges point forward, so one reverse pass in descending node order
	// reaches a fixpoint.
	for n := i; n >= 0; n-- {
		if !act[n] {
			continue
		}
		for _, e := range g.Edges {
			if e.To == n {
				act[e.From] = true
			}
		}
	}
	return act
}

// MaxDegree returns the largest fan-in or fan-out of any stage (at
// least 1 for a non-trivial graph) — the factor transport inbox
// buffers are scaled by.
func (g *StageGraph) MaxDegree() int {
	indeg := make([]int, g.Nodes)
	outdeg := make([]int, g.Nodes)
	for _, e := range g.Edges {
		indeg[e.To]++
		outdeg[e.From]++
	}
	deg := 1
	for i := range g.Nodes {
		deg = max(deg, indeg[i], outdeg[i])
	}
	return deg
}

// Clone returns a deep copy.
func (g *StageGraph) Clone() *StageGraph {
	c := &StageGraph{Nodes: g.Nodes}
	c.Edges = append([]StageEdge(nil), g.Edges...)
	if g.Joins != nil {
		c.Joins = append([]JoinOp(nil), g.Joins...)
	}
	return c
}

// String renders the edge list with join annotations, e.g.
// "0>1,0>2,1>2:sum,2>3,2>4" for a diamond with two heads.
func (g *StageGraph) String() string {
	edges := append([]StageEdge(nil), g.Edges...)
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	var b strings.Builder
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d>%d", e.From, e.To)
		if j := g.join(e.To); j != JoinNone && g.lastEdgeTo(edges, i) {
			fmt.Fprintf(&b, ":%v", j)
		}
	}
	return b.String()
}

// lastEdgeTo reports whether edges[i] is the final edge into its target
// in the sorted list, so String annotates each join exactly once.
func (g *StageGraph) lastEdgeTo(edges []StageEdge, i int) bool {
	for k := i + 1; k < len(edges); k++ {
		if edges[k].To == edges[i].To {
			return false
		}
	}
	return true
}
