package pipeline

import (
	"fmt"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
)

// priceArrays is the number of weight arrays partition.WorkerMemory
// charges one worker of stage st with k minibatches in flight: its price
// on a profile of one weight byte per layer and no activation bytes,
// divided by the stage's weight bytes.
func priceArrays(st partition.StageSpec, k int, gpipe bool) int {
	prof := &profile.ModelProfile{}
	for range st.LastLayer + 1 {
		prof.Layers = append(prof.Layers, profile.LayerProfile{WeightBytes: 1})
	}
	return int(partition.WorkerMemory(prof, st, k, gpipe, false) / int64(st.LastLayer-st.FirstLayer+1))
}

// TestWeightArraysAreThePlannedPrice ties the planner's memory price to
// what the runtime holds: after training, every worker has made exactly
// the weight arrays the price charges its stage. Under weight stashing
// that is one per minibatch of the stage's window the worker keeps in
// flight, never fewer than two — 4/3/2/2 on a straight 4-stage plan at
// its own depth, 2 on 2-1-1 and 3-1. With gradient accumulation over a cycle at
// least as long as the window, a worker's in-flight minibatches hold at
// most one version besides the latest, and the count is GPipe's two.
func TestWeightArraysAreThePlannedPrice(t *testing.T) {
	for _, c := range []struct {
		replicas []int
		accum    int
	}{
		{[]int{1, 1, 1, 1}, 1},
		{[]int{2, 1, 1}, 1},
		{[]int{3, 1}, 1},
		{[]int{1, 1, 1, 1}, 4},
		{[]int{1, 1, 1, 1}, 8},
	} {
		factory, plan := shapePlan(t, c.replicas, nil)
		name := fmt.Sprintf("%v/accum%d", c.replicas, c.accum)
		opts := baseOptions(factory, plan)
		opts.Plan = plan // its own depth
		opts.Mode = WeightStashing
		opts.GradAccumulation = c.accum
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Train(data.NewBlobs(23, 3, 4, 8, 24), 24); err != nil {
			t.Fatal(err)
		}
		windows := plan.Windows()
		for _, sw := range p.workers {
			st := plan.Stages[sw.stage]
			want := priceArrays(st, (windows[sw.stage]+st.Replicas-1)/st.Replicas, c.accum > 1)
			if sw.weights.arrays != want {
				t.Errorf("%s at depth %d: worker %d (stage %d) made %d weight arrays, the price charges %d",
					name, plan.Depth, sw.id, sw.stage, sw.weights.arrays, want)
			}
		}
		p.Close()
	}
}
