package pipeline

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
)

// parentTrainingRuns trains every combination of plan shape, staleness
// mode, recomputation, gradient accumulation and optimizer on the
// in-process transport (TestLossesArePureFunctionOfSeedPlanDepth ties the
// other transports and core counts to it) and returns, per combination, an
// FNV-1a hash over the bits of every loss and of every worker's final
// weights. Two Train windows each, the second ending in a partial
// all-reduce round.
func parentTrainingRuns(t *testing.T) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range []struct {
		name     string
		replicas []int
		graph    *partition.StageGraph
		windows  []int
		// depth, when set, is the depth the golden hashes were trained
		// at, which the plan's own windows no longer give.
		depth int
	}{
		{"chain3", []int{1, 1, 1}, nil, []int{9, 4}, 0},
		{"2-1", []int{2, 1}, nil, []int{9, 4}, 2},
		{"3-1", []int{3, 1}, nil, []int{9, 4}, 2},
		{"2-1-ring", []int{2, 1}, nil, []int{10, 3}, 2},
		{"diamond", []int{1, 1, 1, 1}, diamondGraph, []int{9, 4}, 4},
	} {
		factory, plan := shapePlan(t, c.replicas, c.graph)
		if c.depth > 0 {
			q := *plan
			q.Depth = c.depth
			plan = &q
		}
		ds := data.NewBlobs(23, 3, 4, 8, 13)
		for _, mode := range []StalenessMode{WeightStashing, VerticalSync, NoStashing} {
			for _, recompute := range []bool{false, true} {
				for _, accum := range []int{1, 2} {
					for optName, newOpt := range map[string]func() nn.Optimizer{
						"sgd":      func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
						"momentum": func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 1e-3) },
						"adam":     func() nn.Optimizer { return nn.NewAdam(0.01) },
						"lars":     func() nn.Optimizer { return nn.NewLARS(0.5, 0.9, 1e-3, 0.02) },
					} {
						opts := baseOptions(factory, plan)
						opts.Plan = plan // not baseOptions' depth 1
						opts.Mode = mode
						opts.Recompute = recompute
						opts.GradAccumulation = accum
						opts.NewOptimizer = newOpt
						p, err := New(opts)
						if err != nil {
							t.Fatal(err)
						}
						h := fnv.New64a()
						var word [8]byte
						for _, n := range c.windows {
							rep, err := p.Train(ds, n)
							if err != nil {
								t.Fatal(err)
							}
							for _, l := range rep.Losses {
								binary.LittleEndian.PutUint64(word[:], math.Float64bits(l))
								h.Write(word[:])
							}
						}
						params := paramBits([]*Pipeline{p})
						for w := 0; w < plan.Workers; w++ {
							for _, bits := range params[w] {
								binary.LittleEndian.PutUint32(word[:4], bits)
								h.Write(word[:4])
							}
						}
						p.Close()
						name := fmt.Sprintf("%s/%v/recompute=%v/accum%d/%s", c.name, mode, recompute, accum, optName)
						out[name] = h.Sum64()
					}
				}
			}
		}
	}
	return out
}

// TestTrainingMatchesParentCommit holds the runtime to the arithmetic of
// the commit before weight versions became shared arrays: the golden
// hashes were produced there, with one copy of the weights per in-flight
// minibatch, flattened gradient buckets and in-place optimizer steps, and
// every loss and every final weight must still have the same bits.
func TestTrainingMatchesParentCommit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is from amd64; Go may fuse multiply-add on %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile("testdata/parent_training.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Runs map[string]uint64 `json:"runs_fnv64"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	got := parentTrainingRuns(t)
	if len(got) != len(golden.Runs) {
		t.Fatalf("%d runs, golden has %d", len(got), len(golden.Runs))
	}
	for name, want := range golden.Runs {
		if got[name] != want {
			t.Errorf("%s: losses and weights hash to %#x, parent commit had %#x", name, got[name], want)
		}
	}
}
