package pipeline

import (
	"sync/atomic"
	"testing"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// slowLayer runs its layer after a fixed delay and counts its forwards.
type slowLayer struct {
	nn.Layer
	delay    time.Duration
	forwards *atomic.Int64
}

func (l slowLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	l.forwards.Add(1)
	time.Sleep(l.delay)
	return l.Layer.Forward(x, train)
}

// 1F1B-RR's round-robin routing is static (that is what makes it
// coordination-free, §3.2): a straggling replica still receives 1/R of
// the minibatches, so the epoch cannot finish before the straggler has
// run its full share — static load balancing does not route around it.
func TestStragglerDominatesStaticRoundRobin(t *testing.T) {
	const replicas, mbs = 3, 90
	const delay = 2 * time.Millisecond
	base := mlpFactory(7, 4, 8, 3)
	plan := evenPlan(t, base, 1, replicas) // one stage, 3 replicas
	forwards := make([]atomic.Int64, replicas)
	built := 0
	factory := func() *nn.Sequential {
		m := base()
		if built < replicas { // New builds replica r's model on its r-th call
			var d time.Duration
			if built == 0 {
				d = delay // replica 0 is the straggler
			}
			m.Layers[0] = slowLayer{Layer: m.Layers[0], delay: d, forwards: &forwards[built]}
		}
		built++
		return m
	}
	p, err := New(baseOptions(factory, plan))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	begin := time.Now()
	if _, err := p.Train(data.NewBlobs(11, 3, 4, 8, 12), mbs); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	for r := range forwards {
		if got := forwards[r].Load(); got != mbs/replicas {
			t.Fatalf("replica %d ran %d forwards, want %d (static round-robin)", r, got, mbs/replicas)
		}
	}
	if floor := time.Duration(mbs/replicas) * delay; elapsed < floor {
		t.Fatalf("epoch took %v, below the straggler's own %v", elapsed, floor)
	}
}
