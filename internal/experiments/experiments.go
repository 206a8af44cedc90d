// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from this repository's own substrates: the analytic
// model zoo, the partitioner, the cluster simulator, the real pipeline
// runtime, and the statistical-efficiency harness. Each experiment is a
// named function returning printable tables; cmd/pipedream-repro and the
// top-level benchmarks both drive this registry.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
)

// Table is one printable experiment artifact (a paper table, or one panel
// of a figure rendered as rows/series).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the paper-expected shape and free-form commentary
	// (timeline renders, correlation coefficients, ...).
	Notes []string
	// plans are the plans whose price a row prints, in the order price
	// and memory recorded them.
	plans []pricedPlan
}

// pricedPlan is one plan a row prints the price of under policy, beside
// the profile and cluster it was priced on.
type pricedPlan struct {
	row    string
	prof   *profile.ModelProfile
	topo   *topology.Topology
	plan   *partition.Plan
	policy schedule.Policy
}

// price is the 1F1B throughput every row prints for plan: the planner's
// PredictedThroughput. It records the plan on t under the row's name, so
// TestPredictedVersusSimulated holds each printed price to what
// cluster.Simulate runs the plan at, and notes that on the table.
func (t *Table) price(row string, prof *profile.ModelProfile, topo *topology.Topology, plan *partition.Plan) float64 {
	t.record(row, prof, topo, plan, schedule.PipeDream1F1B, "1F1B throughput is the planner's price (PredictedThroughput), refereed by TestPredictedVersusSimulated")
	return plan.PredictedThroughput
}

// gpipe is the GPipe throughput every row prints for plan, with a flush
// every Depth microbatches: the planner's GPipeThroughput, recorded as
// price records a 1F1B row.
func (t *Table) gpipe(row string, prof *profile.ModelProfile, topo *topology.Topology, plan *partition.Plan) float64 {
	t.record(row, prof, topo, plan, schedule.GPipe, "GPipe throughput is the planner's price (GPipeThroughput), refereed by TestPredictedVersusSimulated")
	return plan.GPipeThroughput()
}

// memory is the per-worker memory every 1F1B row prints for each stage of
// plan: the planner's StageMemory. It records the plan as price does, so
// TestPredictedVersusSimulated also holds each stage's price to the largest
// peak cluster.Simulate reaches on a worker of that stage.
func (t *Table) memory(row string, prof *profile.ModelProfile, topo *topology.Topology, plan *partition.Plan) []int64 {
	t.record(row, prof, topo, plan, schedule.PipeDream1F1B, "1F1B memory is the planner's price (StageMemory), refereed by TestPredictedVersusSimulated")
	return partition.StageMemory(plan, prof)
}

// record adds note to t and plan under policy to t's plans, each once.
func (t *Table) record(row string, prof *profile.ModelProfile, topo *topology.Topology, plan *partition.Plan, policy schedule.Policy, note string) {
	if !slices.Contains(t.Notes, note) {
		t.Notes = append(t.Notes, note)
	}
	if !slices.ContainsFunc(t.plans, func(p pricedPlan) bool { return p.plan == plan && p.policy == policy }) {
		t.plans = append(t.plans, pricedPlan{t.ID + " " + row, prof, topo, plan, policy})
	}
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a commentary line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	if len(t.Header) > 0 {
		line(t.Header)
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
	}
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// Func runs one experiment. quick trades sweep size for speed (used by
// unit tests); the full run is what cmd/pipedream-repro executes.
type Func func(quick bool) ([]*Table, error)

// registry maps experiment IDs to implementations; populated by init
// functions in the per-experiment files.
var registry = map[string]Func{}

// descriptions holds one-line summaries for listing.
var descriptions = map[string]string{}

func register(id, desc string, f Func) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = f
	descriptions[id] = desc
}

// IDs returns all experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns an experiment's one-line summary.
func Describe(id string) string { return descriptions[id] }

// Run executes one experiment by ID.
func Run(id string, quick bool) ([]*Table, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return f(quick)
}

// RunAll executes every registered experiment.
func RunAll(quick bool, w io.Writer) error {
	for _, id := range IDs() {
		tables, err := Run(id, quick)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		for _, t := range tables {
			t.Fprint(w)
		}
	}
	return nil
}

// dpPlan is the data-parallel baseline every experiment compares against:
// the planner's own one-stage plan, the whole model replicated over
// workers of topo, priced by the same stage formula as any pipeline stage
// (PredictedThroughput, StageTimes[0]).
func dpPlan(prof *profile.ModelProfile, topo *topology.Topology, workers int) (*partition.Plan, error) {
	return partition.NewPlan(prof, topo, partition.PlanOptions{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: prof.NumLayers() - 1, Replicas: workers},
	}})
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
func mb(v int64) string    { return fmt.Sprintf("%.1f MB", float64(v)/(1<<20)) }
