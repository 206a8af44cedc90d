package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
	"pipedream/internal/trace"
	"pipedream/internal/transport"
)

// The stage graphs of the schedule package's golden timelines that are
// not chains.
var (
	diamondGraph = &partition.StageGraph{
		Nodes: 4,
		Edges: []partition.StageEdge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
		Joins: []partition.JoinOp{partition.JoinNone, partition.JoinNone, partition.JoinNone, partition.JoinSum},
	}
	twoHeadGraph = &partition.StageGraph{
		Nodes: 4,
		Edges: []partition.StageEdge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}},
	}
)

// shapePlan builds a trainable model and plan of a given shape: one
// Dense(+Tanh) stage per entry of replicas, wired as graph (nil = chain).
// Every stage maps 8 features to 8, except that stage 0 reads 4 and each
// sink emits 3 class scores, so any edge and any sum join type-checks.
func shapePlan(t *testing.T, replicas []int, graph *partition.StageGraph) (func() *nn.Sequential, *partition.Plan) {
	t.Helper()
	g := graph
	if g == nil {
		g = partition.NewLinear(len(replicas))
	}
	factory := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(17))
		var layers []nn.Layer
		for s := range replicas {
			in, out := 8, 8
			if s == 0 {
				in = 4
			}
			if len(g.Succs(s)) == 0 {
				out = 3
			}
			layers = append(layers, nn.NewDense(rng, fmt.Sprintf("fc%d", s), in, out), nn.NewTanh(fmt.Sprintf("t%d", s)))
		}
		return nn.NewSequential(layers...)
	}
	var specs []partition.StageSpec
	workers := 0
	for s, r := range replicas {
		specs = append(specs, partition.StageSpec{FirstLayer: 2 * s, LastLayer: 2*s + 1, Replicas: r})
		workers += r
	}
	plan, err := partition.NewPlan(syntheticProfileFor(factory()), topology.Flat(workers, 1e9, topology.V100),
		partition.PlanOptions{Stages: specs, Graph: graph})
	if err != nil {
		t.Fatal(err)
	}
	return factory, plan
}

// The check made on simulated timelines holds on what the runtime actually
// did: for the five golden shapes, the op log of a real training run
// passes schedule.Validate — every worker ran its schedule.Table list in
// order, each op after its predecessors in the event graph.
func TestRuntimeExecutesScheduleTable(t *testing.T) {
	for _, c := range []struct {
		name     string
		replicas []int
		graph    *partition.StageGraph
	}{
		{"w4r1", []int{1, 1, 1, 1}, nil},
		{"w4r2", []int{2, 1, 1}, nil},
		{"w6r3", []int{3, 1, 1, 1}, nil},
		{"diamond", []int{1, 1, 1, 1}, diamondGraph},
		{"twohead", []int{1, 1, 1, 1}, twoHeadGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			const mbs = 30
			factory, plan := shapePlan(t, c.replicas, c.graph)
			log := metrics.NewOpLog(0)
			opts := baseOptions(factory, plan)
			opts.Plan = plan // its own depth
			opts.OpLog = log
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := p.Train(data.NewBlobs(19, 3, 4, 8, mbs), mbs); err != nil {
				t.Fatal(err)
			}
			validateOpLog(t, log, plan, mbs)
		})
	}
}

// validateOpLog fails t unless the op log of a Train call over
// minibatches [0, mbs) of plan passes schedule.Validate.
func validateOpLog(t *testing.T, log *metrics.OpLog, plan *partition.Plan, mbs int) {
	t.Helper()
	g, err := schedule.Graph(schedule.Assign(plan), schedule.PipeDream1F1B, 0, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(trace.RuntimeTimeline(log), g); err != nil {
		t.Fatalf("the runtime broke its schedule: %v", err)
	}
}

// paramBits returns every local worker's parameters, bit for bit, keyed
// by worker ID.
func paramBits(ps []*Pipeline) map[int][]uint32 {
	out := map[int][]uint32{}
	for _, p := range ps {
		for _, sw := range p.workers {
			for _, param := range sw.model.Params() {
				for _, v := range param.Data {
					out[sw.id] = append(out[sw.id], math.Float32bits(v))
				}
			}
		}
	}
	return out
}

// Training is a pure function of (seed, plan, depth): whichever transport
// carries the messages — in-process channels, loopback TCP in one
// process, one TCP endpoint per worker — and however many cores schedule
// the worker goroutines, every loss and every final weight comes out bit
// for bit the same — under weight stashing, under vertical sync (forwards
// that run under an older version than the latest) and with gradient
// accumulation (updates that write no new version). Each case trains two
// windows, the second starting off a replica-count boundary and ending in a
// partial all-reduce round.
func TestLossesArePureFunctionOfSeedPlanDepth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name     string
		replicas []int
		graph    *partition.StageGraph
		windows  []int
		mode     StalenessMode
		accum    int
	}{
		{"chain3", []int{1, 1, 1}, nil, []int{7, 4}, WeightStashing, 1},
		{"chain4", []int{1, 1, 1, 1}, nil, []int{7, 4}, WeightStashing, 1},
		{"2-1", []int{2, 1}, nil, []int{7, 4}, WeightStashing, 1},
		{"3-1", []int{3, 1}, nil, []int{7, 4}, WeightStashing, 1},
		// The second window ends in a 2-of-3 round on replicas 2 and 0, and
		// in a 2-of-4 round on replicas 2 and 3.
		{"3-1-wrap", []int{3, 1}, nil, []int{8, 5}, WeightStashing, 1},
		{"4-1", []int{4, 1}, nil, []int{6, 6}, WeightStashing, 1},
		{"diamond", []int{1, 1, 1, 1}, diamondGraph, []int{7, 4}, WeightStashing, 1},
		{"twohead", []int{1, 1, 1, 1}, twoHeadGraph, []int{7, 4}, WeightStashing, 1},
		{"chain3-vsync", []int{1, 1, 1}, nil, []int{7, 4}, VerticalSync, 1},
		{"3-1-vsync", []int{3, 1}, nil, []int{7, 4}, VerticalSync, 1},
		{"2-1-vsync-accum2", []int{2, 1}, nil, []int{7, 4}, VerticalSync, 2},
		{"chain4-accum2", []int{1, 1, 1, 1}, nil, []int{7, 4}, WeightStashing, 2},
		{"2-1-accum2", []int{2, 1}, nil, []int{7, 4}, WeightStashing, 2},
	} {
		factory, plan := shapePlan(t, c.replicas, c.graph)
		ds := data.NewBlobs(23, 3, 4, 8, 11)
		for _, depth := range []int{1, 0} { // 0 = the plan's own depth
			for _, recompute := range []bool{false, true} {
				opts := baseOptions(factory, plan)
				if depth == 0 {
					opts.Plan = plan
				}
				opts.Recompute = recompute
				opts.Mode = c.mode
				opts.GradAccumulation = c.accum
				var wantLosses []float64
				var wantParams map[int][]uint32
				for _, tr := range []string{"channels", "tcp", "tcp-per-worker"} {
					for _, procs := range []int{1, 2, 8} {
						name := fmt.Sprintf("%s/depth%d/recompute=%v/%s/procs%d", c.name, depth, recompute, tr, procs)
						// A subtest per run, so its sockets close when it ends.
						t.Run(name, func(t *testing.T) {
							runtime.GOMAXPROCS(procs)
							var ps []*Pipeline
							switch tr {
							case "channels", "tcp":
								o := opts
								if tr == "tcp" {
									tcp, err := transport.NewTCP(plan.Workers, 32)
									if err != nil {
										t.Fatal(err)
									}
									defer tcp.Close()
									o.Transport = tcp
								}
								p, err := New(o)
								if err != nil {
									t.Fatal(err)
								}
								defer p.Close()
								ps = []*Pipeline{p}
							default:
								addrs := freeAddrs(t, plan.Workers)
								for w := 0; w < plan.Workers; w++ {
									ps = append(ps, endpoint(t, opts, addrs, []int{w}, nil))
								}
							}
							var losses []float64
							for _, n := range c.windows {
								losses = append(losses, trainAll(t, ps, ds, n)...)
							}
							params := paramBits(ps)
							if wantLosses == nil {
								wantLosses, wantParams = losses, params
								return
							}
							for mb := range wantLosses {
								if math.Float64bits(losses[mb]) != math.Float64bits(wantLosses[mb]) {
									t.Fatalf("loss[%d] = %v, first run had %v", mb, losses[mb], wantLosses[mb])
								}
							}
							for w, want := range wantParams {
								if len(params[w]) != len(want) {
									t.Fatalf("worker %d has %d weights, first run had %d", w, len(params[w]), len(want))
								}
								for i := range want {
									if params[w][i] != want[i] {
										t.Fatalf("worker %d weight %d differs from the first run", w, i)
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// A vertical-sync forward whose tagged weight version was pruned fails the
// run with an error naming the worker, the tag and the versions that are
// left — it used to panic.
func TestMissingWeightVersionFailsRunWithError(t *testing.T) {
	factory := mlpFactory(5, 4, 8, 3)
	opts := baseOptions(factory, evenPlan(t, factory, 2, 1))
	opts.Mode = VerticalSync
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sw := p.workers[1]
	sw.weights.reset(5)
	_, err = p.Train(data.NewBlobs(7, 3, 4, 8, 4), 4)
	if err == nil {
		t.Fatal("training with no usable weight version succeeded")
	}
	for _, want := range []string{"worker 1", "tag 0", "[5]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}
