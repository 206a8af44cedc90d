package pipeline

import (
	"errors"
	"math"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

const gradPoison = 0x7fa0dead // the pool's signalling NaN

func poisonGrads(arena []float32) {
	for i := range arena {
		arena[i] = math.Float32frombits(gradPoison)
	}
}

// stepProbe wraps a worker's optimizer. Each step leaves the gradient arena
// poisoned — the array it hands the gradients is a freed version's, which
// the use-after-release detector marks — so until the next backward's
// parameter pass sets it the arena reads as poison; the probe counts the
// steps and the backwards whose upstream gradient has begun to leave,
// which its worker's transport sends report.
type stepProbe struct {
	nn.Optimizer
	sw           *stageWorker
	steps, sends int
	lastMB       int
}

func (o *stepProbe) StepInto(next, cur, grads []*tensor.Tensor) {
	o.Optimizer.StepInto(next, cur, grads)
	o.steps++
}

// upOrder checks every upstream Gradient as it leaves: no parameter half of
// the sending backward has run (the stage's arena is still the poison the
// last step left) and the backward has not stepped (one step per earlier
// backward). Every stage that sends one has a single worker here; each
// probe is touched only by that worker's goroutine.
type upOrder struct {
	transport.Transport
	t      *testing.T
	probes map[int]*stepProbe // by stage
}

func (u *upOrder) Send(to int, m transport.Message) error {
	if o := u.probes[m.Src]; m.Kind == transport.Gradient && o != nil {
		if o.sends == 0 || o.lastMB != m.Minibatch {
			o.sends++
			o.lastMB = m.Minibatch
		}
		for _, v := range o.sw.gradArena {
			if math.Float32bits(v) != gradPoison {
				u.t.Errorf("stage %d mb %d: the upstream gradient left after a parameter half had run", m.Src, m.Minibatch)
				break
			}
		}
		if o.steps != o.sends-1 {
			u.t.Errorf("stage %d mb %d: the upstream gradient left after %d steps, its backward being the %d-th", m.Src, m.Minibatch, o.steps, o.sends)
		}
	}
	return u.Transport.Send(to, m)
}

// refuseGradients fails every Gradient send and takes any other message
// without delivering it (Send only borrows).
type refuseGradients struct{ transport.Transport }

func (r refuseGradients) Send(to int, m transport.Message) error {
	if m.Kind == transport.Gradient {
		return errors.New("gradient refused")
	}
	return nil
}

// Every stage sends its upstream gradient from the input pass — before any
// weight gradient of that backward is computed and before its optimizer
// step — on a chain, a replicated stage (whose ring then runs after the
// send) and a diamond; the op log says when, inside each backward; and a
// backward whose upstream send fails still puts back every pooled tensor it
// and its forward took.
func TestUpstreamGradientLeavesBeforeParameterHalves(t *testing.T) {
	for _, c := range []struct {
		name     string
		replicas []int
		graph    *partition.StageGraph
	}{
		{"chain3", []int{1, 1, 1}, nil},
		{"2-1", []int{2, 1}, nil},
		{"diamond", []int{1, 1, 1, 1}, diamondGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			const mbs = 24
			factory, plan := shapePlan(t, c.replicas, c.graph)
			u := &upOrder{Transport: transport.NewChannels(plan.Workers, 64), t: t, probes: map[int]*stepProbe{}}
			log := metrics.NewOpLog(0)
			opts := baseOptions(factory, plan)
			opts.Plan = plan // its own depth
			opts.Transport = u
			opts.OpLog = log
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			for _, sw := range p.workers {
				if len(sw.preds) > 0 {
					probe := &stepProbe{Optimizer: sw.opt, sw: sw}
					sw.opt, u.probes[sw.stage] = probe, probe
					poisonGrads(sw.gradArena)
				}
			}
			if _, err := p.Train(data.NewBlobs(19, 3, 4, 8, mbs), mbs); err != nil {
				t.Fatal(err)
			}
			for stage, o := range u.probes {
				if o.sends != mbs || o.steps != mbs {
					t.Errorf("stage %d: %d backwards sent upstream, %d steps; want %d each", stage, o.sends, o.steps, mbs)
				}
			}
			for _, ev := range log.Events() {
				if ev.Kind != metrics.OpBackward {
					continue
				}
				if sent := ev.GradUp > 0 && ev.GradUp <= ev.Dur; sent != (ev.Stage > 0) {
					t.Errorf("stage %d backward of mb %d: upstream gradient at %v of %v", ev.Stage, ev.Minibatch, ev.GradUp, ev.Dur)
				}
			}

			p.Close()

			// A failed upstream send: each stage with a predecessor runs one
			// forward and one backward by hand.
			opts = baseOptions(factory, plan)
			opts.Transport = refuseGradients{transport.NewChannels(plan.Workers, 8)}
			defer opts.Transport.Close()
			if p, err = New(opts); err != nil {
				t.Fatal(err)
			}
			fill := func(x *tensor.Tensor) *tensor.Tensor {
				for i := range x.Data {
					x.Data[i] = float32(i%7) / 7
				}
				return x
			}
			for _, sw := range p.workers {
				if len(sw.preds) == 0 {
					continue
				}
				sw.results = make(chan lossEvent, 1)
				ab := newRunAbort()
				before := outstanding()
				x := fill(tensor.GetRaw(8, 8)) // a delivered activation: the worker's
				if err := sw.forward(transport.Message{Kind: transport.Activation, Tensor: x, Labels: []int{0, 1, 2, 0, 1, 2, 0, 1}}, ab); err != nil {
					t.Fatal(err)
				}
				g, ok := sw.bwdReady[0] // a sink's loss gradient
				if !ok {
					g = transport.Message{Kind: transport.Gradient, Tensor: fill(tensor.GetRaw(8, 8))}
				}
				delete(sw.bwdReady, 0)
				if err := sw.backward(g, ab); err == nil {
					t.Fatalf("stage %d: backward succeeded with its gradient refused", sw.stage)
				}
				if held := outstanding() - before; held != 0 {
					t.Errorf("stage %d: %d pooled tensors outstanding after a backward whose upstream send failed, want 0", sw.stage, held)
				}
			}
			p.Close()
		})
	}
}
