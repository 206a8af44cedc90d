package pipeline

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/modelzoo/branching"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/transport"
)

// counted wraps a model factory and counts its calls.
func counted(factory func() *nn.Sequential) (func() *nn.Sequential, *atomic.Int64) {
	calls := new(atomic.Int64)
	return func() *nn.Sequential {
		calls.Add(1)
		return factory()
	}, calls
}

// New builds one factory model per replica index the process hosts and
// hands each local worker its stage of that model: a straight pipeline
// builds one model whatever its depth, a replicated stage one per
// replica, an endpoint hosting one worker one. An elastic rescale builds
// the new plan's largest replica count plus the model the checkpoint
// shards are reassembled into. A factory whose stages share a layer or a
// parameter tensor is rejected, naming both stages.
func TestEachReplicaModelBuiltOnce(t *testing.T) {
	factory := mlpFactory(7, 4, 8, 3)
	newCounted := func(t *testing.T, build func(Options) (*Pipeline, error), opts Options, want int64) {
		t.Helper()
		f, calls := counted(opts.ModelFactory)
		opts.ModelFactory = f
		p, err := build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if got := calls.Load(); got != want {
			t.Fatalf("New called the factory %d times, want %d", got, want)
		}
	}
	for _, c := range []struct {
		name             string
		stages, replicas int
		want             int64
	}{
		{"straight-3", 3, 1, 1},
		{"2-1", 2, 2, 2},
		{"3-1", 2, 3, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			newCounted(t, New, baseOptions(factory, evenPlan(t, factory, c.stages, c.replicas)), c.want)
		})
	}
	t.Run("diamond", func(t *testing.T) {
		b := branching.StandIn(5)
		opts := baseOptions(b.Factory, branchPlan(t, b))
		opts.SinkLoss = map[int]LossFunc{b.ParityHead: branching.ParityLoss}
		newCounted(t, New, opts, 1)
	})
	t.Run("endpoint-hosting-stage0-replica1", func(t *testing.T) {
		addrs := freeAddrs(t, 3)
		newCounted(t, func(opts Options) (*Pipeline, error) {
			p := endpoint(t, opts, addrs, []int{1}, nil)
			if len(p.workers) != 1 || p.workers[0].stage != 0 || p.workers[0].replica != 1 {
				t.Fatalf("endpoint hosts %d workers, want stage 0 replica 1 alone", len(p.workers))
			}
			return p, nil
		}, baseOptions(factory, evenPlan(t, factory, 2, 2)), 1)
	})
	t.Run("elastic-kill-worker-rescale", func(t *testing.T) {
		h := newElasticHarness(membership.Config{HeartbeatTimeout: 100 * time.Millisecond, Debounce: 20 * time.Millisecond})
		for id := 0; id < 3; id++ {
			h.startNode(t, id)
		}
		ds := data.NewBlobs(67, 3, 4, 8, 30)
		killed := &breakAtDataset{Dataset: ds, at: 7, hook: func() {
			h.stopNode(2)
			h.chaos().Sever(2)
		}}
		f, calls := counted(factory)
		var atReplan int64
		e, err := NewElastic(Options{
			ModelFactory: f,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
			FaultConfig:  FaultConfig{CheckpointDir: t.TempDir(), CheckpointEvery: 5, MaxRecoveries: 2, WatchdogTimeout: 250 * time.Millisecond},
		}, ElasticConfig{
			View: h.view,
			// 3 workers run 2-1; the 2 survivors run stage 0 twice.
			Replan: func(n int) (*partition.Plan, error) {
				atReplan = calls.Load()
				plan := evenPlan(t, factory, n-1, 2)
				plan.Depth = 1
				return plan, nil
			},
			MinWorkers:   2,
			WaitTimeout:  5 * time.Second,
			NewTransport: h.transportFactory,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Train(killed, 10); err != nil {
			t.Fatal(err)
		}
		if e.Rescales() != 1 || e.Plan().Workers != 2 {
			t.Fatalf("%d rescales to a %d-worker plan, want 1 to 2", e.Rescales(), e.Plan().Workers)
		}
		if got := calls.Load() - atReplan; got != 2+1 {
			t.Fatalf("the rescale called the factory %d times, want 3 (2 replicas + the reassembled checkpoint)", got)
		}
	})

	// Two stages cut from one model that share a layer, or a parameter
	// tensor, would run it on two workers at once.
	sharedLayer := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(3))
		fc := nn.NewDense(rng, "fc", 4, 4)
		return nn.NewSequential(fc, nn.NewTanh("t"), fc, nn.NewDense(rng, "out", 4, 3))
	}
	sharedParam := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(3))
		a, b := nn.NewDense(rng, "a", 4, 4), nn.NewDense(rng, "b", 4, 4)
		b.W = a.W
		return nn.NewSequential(a, nn.NewTanh("t"), b, nn.NewDense(rng, "out", 4, 3))
	}
	for name, f := range map[string]func() *nn.Sequential{"shared-layer": sharedLayer, "shared-parameter": sharedParam} {
		t.Run(name, func(t *testing.T) {
			_, err := New(baseOptions(f, evenPlan(t, f, 2, 1)))
			if err == nil || !strings.Contains(err.Error(), "stages 0 and 1") {
				t.Fatalf("New: %v, want an error naming stages 0 and 1", err)
			}
		})
	}
}

// dropoutFactory builds a 2-stage model with a Dropout(0.5) in each stage,
// every layer drawn from one generator.
func dropoutFactory() *nn.Sequential {
	rng := rand.New(rand.NewSource(41))
	return nn.NewSequential(
		nn.NewDense(rng, "fc1", 16, 64), nn.NewTanh("t1"), nn.NewDropout(rng, "d1", 0.5),
		nn.NewDense(rng, "fc2", 64, 64), nn.NewDropout(rng, "d2", 0.5), nn.NewDense(rng, "fc3", 64, 3),
	)
}

// Both stages of a pipeline run slices of one factory model, so the two
// Dropout layers' masks come from streams of their own: at the plan's
// depth, where the stages' forwards overlap, training is race-free and a
// pure function of its inputs — two runs agree bit for bit, and so do
// in-process channels and loopback TCP.
func TestDropoutStagesOfOneModelTrainBitEqual(t *testing.T) {
	const mbs = 30
	ds := data.NewBlobs(43, 3, 16, 32, mbs)
	plan := evenPlan(t, dropoutFactory, 2, 1)
	run := func(tr transport.Transport) []float64 {
		opts := baseOptions(dropoutFactory, plan)
		opts.Plan, opts.Transport = plan, tr
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rep, err := p.Train(ds, mbs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Losses
	}
	want := run(nil)
	tcp, err := transport.NewTCP(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for name, got := range map[string][]float64{"second channels run": run(nil), "TCP": run(tcp)} {
		for mb := range want {
			if math.Float64bits(got[mb]) != math.Float64bits(want[mb]) {
				t.Fatalf("%s: loss[%d] = %v, first run %v", name, mb, got[mb], want[mb])
			}
		}
	}
}
