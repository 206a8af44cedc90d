package nn_test

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"pipedream/internal/cliconf"
	"pipedream/internal/data"
	"pipedream/internal/nn"
)

// parentLossSteps is the number of single-worker training steps pinned
// per task in testdata/parent_losses.json.
const parentLossSteps = 20

// parentLossRun is one task's pinned trajectory: every minibatch loss
// rounded to float32, as a bit pattern, plus an FNV-1a hash over the
// bit patterns of every parameter after the last step.
type parentLossRun struct {
	Losses     []uint32 `json:"losses_f32_bits"`
	WeightsFNV uint64   `json:"weights_fnv64"`
}

// parentLossTasks builds the three models the golden file covers: the
// benchmark's Dense/Tanh MLP (width 256, batch 64) and the cliconf
// images (Conv2D) and sequence (LSTM) stand-ins.
func parentLossTasks(t testing.TB) map[string]*cliconf.Task {
	const seed, width, batch, classes = 1, 256, 64, 8
	tasks := map[string]*cliconf.Task{
		"mlp": {
			Factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(seed))
				return nn.NewSequential(
					nn.NewDense(rng, "fc1", width, width), nn.NewTanh("t1"),
					nn.NewDense(rng, "fc2", width, width), nn.NewTanh("t2"),
					nn.NewDense(rng, "out", width, classes),
				)
			},
			Train:        data.NewBlobs(seed+1, classes, width, batch, 32),
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0.9, 0) },
		},
	}
	for _, name := range []string{"images", "sequence"} {
		task, err := (&cliconf.Model{Task: name, Seed: seed}).Build()
		if err != nil {
			t.Fatal(err)
		}
		tasks[name] = task
	}
	return tasks
}

// trainParentLossRun runs parentLossSteps forward/loss/backward/step
// iterations of task on one goroutine.
func trainParentLossRun(task *cliconf.Task) parentLossRun {
	model, opt := task.Factory(), task.NewOptimizer()
	var run parentLossRun
	for i := 0; i < parentLossSteps; i++ {
		b := task.Train.Batch(i)
		y, ctx := model.Forward(b.X, true)
		loss, grad := nn.SoftmaxCrossEntropy(y, b.Labels)
		model.Backward(ctx, grad)
		opt.Step(model.Params(), model.Grads())
		run.Losses = append(run.Losses, math.Float32bits(float32(loss)))
	}
	h := fnv.New64a()
	var word [4]byte
	for _, p := range model.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	run.WeightsFNV = h.Sum64()
	return run
}

// TestLossesMatchParentCommit holds the tensor kernels to the
// arithmetic of the commit before the assembly micro-kernels: the golden
// trajectories were produced there, by the portable loops, and every
// loss and every final weight must still have the same bits.
func TestLossesMatchParentCommit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is from amd64; Go may fuse multiply-add on %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile("testdata/parent_losses.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Tasks map[string]parentLossRun `json:"tasks"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for name, task := range parentLossTasks(t) {
		want, ok := golden.Tasks[name]
		if !ok || len(want.Losses) != parentLossSteps {
			t.Fatalf("%s: golden has %d losses, want %d", name, len(want.Losses), parentLossSteps)
		}
		got := trainParentLossRun(task)
		for i, bits := range got.Losses {
			if bits != want.Losses[i] {
				t.Errorf("%s step %d: loss %v (%#08x), parent commit had %v (%#08x)", name, i,
					math.Float32frombits(bits), bits, math.Float32frombits(want.Losses[i]), want.Losses[i])
				break
			}
		}
		if got.WeightsFNV != want.WeightsFNV {
			t.Errorf("%s: weights after %d steps hash to %#x, parent commit had %#x", name, parentLossSteps, got.WeightsFNV, want.WeightsFNV)
		}
	}
}
