package pipeline

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// elasticHarness is the shared rig for the chaos tests: a membership
// view, per-node beater goroutines, and a transport factory that wraps
// each plan incarnation's channels in a fresh seeded Chaos proxy and
// remembers the latest one so a test hook can sever live connections.
type elasticHarness struct {
	view *membership.View

	mu      sync.Mutex
	cur     *transport.Chaos
	beaters map[int]chan struct{}
	held    map[int]bool // nodes whose beater is paused, as a starved worker's
}

func newElasticHarness(cfg membership.Config) *elasticHarness {
	return &elasticHarness{view: membership.New(cfg), beaters: make(map[int]chan struct{}), held: make(map[int]bool)}
}

// startNode joins the node and keeps it beating every 5ms until
// stopNode (or the test's cleanup) is called. A beat that comes later
// than the heartbeat timeout may find the node evicted, and View.Beat
// ignores an evicted member; so the beater then re-announces with Join,
// as a live worker that missed its deadline does. An explicit Leave
// stays in force while the beats are on time.
func (h *elasticHarness) startNode(t *testing.T, id int) {
	t.Helper()
	h.view.Join(id, "")
	stop := make(chan struct{})
	h.mu.Lock()
	h.beaters[id] = stop
	h.mu.Unlock()
	t.Cleanup(func() { h.stopNode(id) })
	timeout := h.view.Config().HeartbeatTimeout
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.mu.Lock()
				held := h.held[id]
				h.mu.Unlock()
				if held {
					continue
				}
				now := time.Now()
				if timeout > 0 && now.Sub(last) > timeout {
					h.view.Join(id, "")
				} else {
					h.view.Beat(id)
				}
				last = now
			}
		}
	}()
}

// stopNode silences a node's heartbeats (the crash, as the failure
// detector sees it). Idempotent.
func (h *elasticHarness) stopNode(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if stop, ok := h.beaters[id]; ok {
		close(stop)
		delete(h.beaters, id)
	}
}

// hold pauses (or resumes) a node's beater without stopping it — a
// worker that is alive but starved of CPU.
func (h *elasticHarness) hold(id int, paused bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held[id] = paused
}

// transportFactory builds one chaos-wrapped transport per incarnation.
func (h *elasticHarness) transportFactory(workers, buffer int) (transport.Transport, error) {
	ch := transport.NewChaos(transport.NewChannels(workers, buffer), transport.ChaosConfig{Seed: 1})
	h.mu.Lock()
	h.cur = ch
	h.mu.Unlock()
	return ch, nil
}

// chaos returns the current incarnation's chaos proxy.
func (h *elasticHarness) chaos() *transport.Chaos {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur
}

// elasticBaseline trains the same workload on a plain (non-elastic)
// pipeline and returns its losses and final params — the ground truth
// every chaos run must match bit-for-bit at depth 1.
func elasticBaseline(t *testing.T, factory func() *nn.Sequential, ds data.Dataset, stages, mbs int) ([]float64, []*tensor.Tensor) {
	t.Helper()
	plan := evenPlan(t, factory, stages, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, mbs)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Losses, p.CollectModel().Params()
}

func assertElasticMatchesBaseline(t *testing.T, e *Elastic, rep *Report, wantLosses []float64, wantParams []*tensor.Tensor) {
	t.Helper()
	for i := range wantLosses {
		if rep.Losses[i] != wantLosses[i] {
			t.Fatalf("loss %d = %v, want %v (elastic run diverged from baseline)", i, rep.Losses[i], wantLosses[i])
		}
	}
	model, err := e.CollectModel()
	if err != nil {
		t.Fatal(err)
	}
	got := model.Params()
	if len(got) != len(wantParams) {
		t.Fatalf("param count %d, want %d", len(got), len(wantParams))
	}
	for i := range wantParams {
		if !got[i].AllClose(wantParams[i], 0) {
			t.Fatalf("param %d: elastic run diverged from baseline", i)
		}
	}
}

// Acceptance (tentpole): kill a worker mid-train. The severed
// connection surfaces as a chunk failure, the failure detector evicts
// the silent node, the controller replans onto the two survivors,
// reloads the full model from the checkpoint shards, and resumes from
// the saved cursor — and at depth 1 the final losses and weights are
// bit-equal to an uninterrupted run.
func TestElasticKillWorkerReplansAndMatchesBaseline(t *testing.T) {
	factory := mlpFactory(61, 4, 8, 3)
	ds := data.NewBlobs(67, 3, 4, 8, 30)
	const mbs = 20

	wantLosses, wantParams := elasticBaseline(t, factory, ds, 3, mbs)

	h := newElasticHarness(membership.Config{
		HeartbeatTimeout: 100 * time.Millisecond,
		Debounce:         20 * time.Millisecond,
	})
	for id := 0; id < 3; id++ {
		h.startNode(t, id)
	}

	// Minibatch 12 (inside the chunk that begins at the mb-10 barrier):
	// node 2 goes silent and its connections die.
	chaosDS := &breakAtDataset{Dataset: ds, at: 12, hook: func() {
		h.stopNode(2)
		h.chaos().Sever(2)
	}}

	e, err := NewElastic(Options{
		ModelFactory: factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		FaultConfig: FaultConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 5,
			MaxRecoveries:   2,
			WatchdogTimeout: 250 * time.Millisecond,
		},
	}, ElasticConfig{
		View: h.view,
		Replan: func(n int) (*partition.Plan, error) {
			plan := evenPlan(t, factory, n, 1)
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

	rep, err := e.Train(chaosDS, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rescales() != 1 || len(rep.Rescales) != 1 {
		t.Fatalf("rescales = %d (report %d), want 1", e.Rescales(), len(rep.Rescales))
	}
	rs := rep.Rescales[0]
	if rs.FromWorkers != 3 || rs.ToWorkers != 2 {
		t.Fatalf("rescale %d→%d workers, want 3→2", rs.FromWorkers, rs.ToWorkers)
	}
	if rs.Cursor != 10 {
		t.Fatalf("rescale resumed at mb %d, want the mb-10 checkpoint barrier", rs.Cursor)
	}
	if e.Plan().Workers != 2 {
		t.Fatalf("final plan has %d workers, want 2", e.Plan().Workers)
	}
	assertElasticMatchesBaseline(t, e, rep, wantLosses, wantParams)
}

// Acceptance (tentpole): a worker joins mid-train. At the next
// checkpoint barrier the controller notices the wider stable
// membership, drains, replans onto three workers, and resumes —
// loss-for-loss with the uninterrupted baseline.
func TestElasticAddWorkerWidensPlanAndMatchesBaseline(t *testing.T) {
	factory := mlpFactory(71, 4, 8, 3)
	ds := data.NewBlobs(73, 3, 4, 8, 30)
	const mbs = 20

	wantLosses, wantParams := elasticBaseline(t, factory, ds, 2, mbs)

	h := newElasticHarness(membership.Config{})
	h.startNode(t, 0)
	h.startNode(t, 1)

	chaosDS := &breakAtDataset{Dataset: ds, at: 12, hook: func() {
		h.view.Join(2, "")
	}}

	e, err := NewElastic(Options{
		ModelFactory: factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		FaultConfig: FaultConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 5,
			MaxRecoveries:   2,
			WatchdogTimeout: 250 * time.Millisecond,
		},
	}, ElasticConfig{
		View: h.view,
		Replan: func(n int) (*partition.Plan, error) {
			plan := evenPlan(t, factory, n, 1)
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

	rep, err := e.Train(chaosDS, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rescales) != 1 {
		t.Fatalf("rescales = %d, want 1", len(rep.Rescales))
	}
	rs := rep.Rescales[0]
	if rs.FromWorkers != 2 || rs.ToWorkers != 3 {
		t.Fatalf("rescale %d→%d workers, want 2→3", rs.FromWorkers, rs.ToWorkers)
	}
	if rs.Cursor != 15 {
		t.Fatalf("rescale resumed at mb %d, want the mb-15 barrier after the join", rs.Cursor)
	}
	if e.Plan().Workers != 3 {
		t.Fatalf("final plan has %d workers, want 3", e.Plan().Workers)
	}
	if rep.MembershipEpoch == 0 {
		t.Fatal("report carries no membership epoch")
	}
	assertElasticMatchesBaseline(t, e, rep, wantLosses, wantParams)
}

// Acceptance (tentpole): membership drops below MinWorkers. The
// controller drains and blocks in WaitStable instead of training
// under-strength; when the worker rejoins, training resumes from the
// barrier cursor and finishes loss-for-loss with the baseline.
func TestElasticBelowMinWorkersWaitsForRejoin(t *testing.T) {
	factory := mlpFactory(81, 4, 8, 3)
	ds := data.NewBlobs(83, 3, 4, 8, 30)
	const mbs = 20
	const rejoinAfter = 200 * time.Millisecond

	wantLosses, wantParams := elasticBaseline(t, factory, ds, 2, mbs)

	h := newElasticHarness(membership.Config{})
	h.startNode(t, 0)
	h.startNode(t, 1)

	chaosDS := &breakAtDataset{Dataset: ds, at: 7, hook: func() {
		h.view.Leave(1)
		go func() {
			time.Sleep(rejoinAfter)
			h.view.Join(1, "")
		}()
	}}

	e, err := NewElastic(Options{
		ModelFactory: factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		FaultConfig: FaultConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 5,
			MaxRecoveries:   2,
			WatchdogTimeout: 250 * time.Millisecond,
		},
	}, ElasticConfig{
		View: h.view,
		Replan: func(n int) (*partition.Plan, error) {
			plan := evenPlan(t, factory, n, 1)
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

	rep, err := e.Train(chaosDS, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rescales) != 1 {
		t.Fatalf("rescales = %d, want 1", len(rep.Rescales))
	}
	rs := rep.Rescales[0]
	if rs.FromWorkers != 2 || rs.ToWorkers != 2 {
		t.Fatalf("rescale %d→%d workers, want 2→2 (drain, wait, resume)", rs.FromWorkers, rs.ToWorkers)
	}
	if rs.Replan < rejoinAfter/2 {
		t.Fatalf("replan took %v, want a visible below-min wait (worker rejoined after %v)", rs.Replan, rejoinAfter)
	}
	assertElasticMatchesBaseline(t, e, rep, wantLosses, wantParams)
}

// Acceptance (tentpole, flap tolerance): a worker that leaves and
// rejoins within the debounce window must not trigger a rescale — the
// set comparison at the barrier sees an unchanged membership.
func TestElasticFlapWithinDebounceDoesNotRescale(t *testing.T) {
	factory := mlpFactory(91, 4, 8, 3)
	ds := data.NewBlobs(93, 3, 4, 8, 30)
	const mbs = 15

	h := newElasticHarness(membership.Config{Debounce: 50 * time.Millisecond})
	h.startNode(t, 0)
	h.startNode(t, 1)

	chaosDS := &breakAtDataset{Dataset: ds, at: 7, hook: func() {
		h.view.Leave(1)
		h.view.Join(1, "")
	}}

	e, err := NewElastic(Options{
		ModelFactory: factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		FaultConfig: FaultConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 5,
			MaxRecoveries:   2,
			WatchdogTimeout: 250 * time.Millisecond,
		},
	}, ElasticConfig{
		View: h.view,
		Replan: func(n int) (*partition.Plan, error) {
			plan := evenPlan(t, factory, n, 1)
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

	rep, err := e.Train(chaosDS, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rescales) != 0 || e.Rescales() != 0 {
		t.Fatalf("flap inside the debounce window triggered %d rescales, want 0", len(rep.Rescales))
	}
}

// Regression (satellite): MaxRecoveries bounds CONSECUTIVE failed
// recoveries, not lifetime ones. Two transient faults separated by
// clean progress must both recover even with MaxRecoveries = 1 — the
// old lifetime accounting would abort on the second.
func TestTrainMaxRecoveriesIsConsecutiveNotLifetime(t *testing.T) {
	factory := mlpFactory(31, 4, 8, 3)
	ds := data.NewBlobs(33, 3, 4, 8, 30)
	const mbs = 20

	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 1
	ref, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Train(ds, mbs); err != nil {
		t.Fatal(err)
	}

	chaos := transport.NewChaos(transport.NewChannels(2, 16), transport.ChaosConfig{Seed: 7})
	defer chaos.Close()
	// Two faults in different chunks: mb 2 (chunk [0,5)) and mb 12
	// (chunk [10,15)), with clean chunks between them.
	inner := &breakAtDataset{Dataset: ds, at: 12, hook: func() { chaos.DropNext(1) }}
	outer := &breakAtDataset{Dataset: inner, at: 2, hook: func() { chaos.DropNext(1) }}

	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		Transport:    chaos,
		FaultConfig: FaultConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 5,
			MaxRecoveries:   1,
			WatchdogTimeout: 250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(outer, mbs)
	if err != nil {
		t.Fatalf("second spaced fault aborted the run: %v (lifetime accounting?)", err)
	}
	if rep.Faults.Recoveries != 2 {
		t.Fatalf("Recoveries = %d, want 2", rep.Faults.Recoveries)
	}
	got := p.CollectModel().Params()
	want := ref.CollectModel().Params()
	for i := range want {
		if !got[i].AllClose(want[i], 0) {
			t.Fatalf("param %d: recovered run diverged from clean run", i)
		}
	}
}

// ownedCount must agree with round-robin routing: summing it over all
// replicas yields the cursor, and it matches a direct count.
func TestOwnedCountMatchesRoundRobin(t *testing.T) {
	for _, replicas := range []int{1, 2, 3, 4} {
		for cursor := 0; cursor <= 25; cursor++ {
			total := 0
			for r := 0; r < replicas; r++ {
				want := 0
				for mb := 0; mb < cursor; mb++ {
					if mb%replicas == r {
						want++
					}
				}
				got := ownedCount(cursor, r, replicas)
				if got != want {
					t.Fatalf("ownedCount(%d, %d, %d) = %d, want %d", cursor, r, replicas, got, want)
				}
				total += got
			}
			if total != cursor {
				t.Fatalf("replicas %d cursor %d: owned sum %d", replicas, cursor, total)
			}
		}
	}
}

// Acceptance (tentpole, isolation): LoadFullState + adoptFullState is
// bit-exact — a checkpoint written by a 3-stage plan, adopted onto a
// 2-stage plan, continues training with losses identical to a run that
// never rescaled. Momentum matters here: the optimizer state must ride
// along through the full-state reassembly (including the vacuous state
// of a parameterless stage).
func TestAdoptFullStateResumesBitEqual(t *testing.T) {
	factory := mlpFactory(61, 4, 8, 3)
	ds := data.NewBlobs(67, 3, 4, 8, 30)
	opt := func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) }

	// Baseline: 20 mbs on one 3-stage pipeline.
	plan := evenPlan(t, factory, 3, 1)
	plan.Depth = 1
	ref, err := New(Options{
		ModelFactory: factory, Plan: plan,
		Loss: nn.SoftmaxCrossEntropy, NewOptimizer: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRep, err := ref.Train(ds, 20)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: 10 mbs on a 3-stage pipeline, checkpoint.
	dir := t.TempDir()
	p1, err := New(Options{
		ModelFactory: factory, Plan: plan,
		Loss: nn.SoftmaxCrossEntropy, NewOptimizer: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	rep1, err := p1.Train(ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	// Phase 2: adopt onto a 2-stage pipeline, 10 more mbs.
	full, err := checkpoint.LoadFullState(dir, factory)
	if err != nil {
		t.Fatal(err)
	}
	if full.OptState == nil {
		t.Fatal("checkpoint carries no optimizer state")
	}
	plan2 := evenPlan(t, factory, 2, 1)
	plan2.Depth = 1
	p2, err := New(Options{
		ModelFactory: factory, Plan: plan2,
		Loss: nn.SoftmaxCrossEntropy, NewOptimizer: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.adoptFullState(full); err != nil {
		t.Fatal(err)
	}
	rep2, err := p2.Train(ds, 10)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if rep1.Losses[i] != refRep.Losses[i] {
			t.Fatalf("phase1 loss %d = %v, want %v", i, rep1.Losses[i], refRep.Losses[i])
		}
		if rep2.Losses[i] != refRep.Losses[10+i] {
			t.Fatalf("phase2 loss %d = %v, want %v", 10+i, rep2.Losses[i], refRep.Losses[10+i])
		}
	}
}

// A survivor whose beater is starved past the heartbeat timeout — as
// under go test -race with every package running at once — is evicted by
// the next sweep. Its next announcement must re-admit it, or a rescale
// that needs it waits for a worker that is alive until WaitTimeout.
func TestElasticHarnessReadmitsStarvedSurvivor(t *testing.T) {
	h := newElasticHarness(membership.Config{HeartbeatTimeout: 100 * time.Millisecond})
	h.startNode(t, 0)
	h.startNode(t, 1)
	h.hold(1, true)
	deadline := time.Now().Add(5 * time.Second)
	for sameNodes(h.view.AliveIDs(), []int{0, 1}) {
		if time.Now().After(deadline) {
			t.Fatal("the failure detector never evicted the paused node")
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.hold(1, false)
	if _, _, err := h.view.WaitStable(2, 5*time.Second); err != nil {
		t.Fatalf("the starved node was not re-admitted once its beater resumed: %v", err)
	}
}

// elasticRun builds an elastic runtime on h's view with the chaos tests'
// settings: a checkpoint barrier every 5 minibatches, at least 2
// workers, and one depth-1 stage per live node.
func elasticRun(t *testing.T, h *elasticHarness, factory func() *nn.Sequential, reg *metrics.Registry) *Elastic {
	t.Helper()
	e, err := NewElastic(Options{
		ModelFactory: factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		Metrics:      reg,
		FaultConfig: FaultConfig{
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 5,
			MaxRecoveries:   2,
			WatchdogTimeout: 250 * time.Millisecond,
		},
	}, ElasticConfig{
		View: h.view,
		Replan: func(n int) (*partition.Plan, error) {
			plan := evenPlan(t, factory, n, 1)
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
	t.Cleanup(func() { e.Close() })
	return e
}

// Each Train call reports its own ops only: a second call on the same
// plan incarnation opens a fresh measurement window, as Pipeline.Train
// does.
func TestElasticTrainReportsOnlyItsOwnOps(t *testing.T) {
	h := newElasticHarness(membership.Config{})
	h.startNode(t, 0)
	h.startNode(t, 1)
	e := elasticRun(t, h, mlpFactory(41, 4, 8, 3), metrics.NewRegistry())
	ds := data.NewBlobs(43, 3, 4, 8, 30)
	const mbs = 10
	for call := 1; call <= 2; call++ {
		rep, err := e.Train(ds, mbs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Stages) != 2 {
			t.Fatalf("call %d: %d stage reports, want 2", call, len(rep.Stages))
		}
		for _, st := range rep.Stages {
			if st.FwdOps != mbs {
				t.Fatalf("call %d: worker %d reports %d forwards, want this call's %d", call, st.Worker, st.FwdOps, mbs)
			}
		}
	}
}

// parallelismProbe runs its layer and records the highest kernel degree
// a forward ran at.
type parallelismProbe struct {
	nn.Layer
	seen *atomic.Int64
}

func (l parallelismProbe) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	d := int64(tensor.Parallelism())
	for cur := l.seen.Load(); d > cur && !l.seen.CompareAndSwap(cur, d); cur = l.seen.Load() {
	}
	return l.Layer.Forward(x, train)
}

// With KernelParallelism unset, an elastic run sizes kernel parallelism
// to its stage workers, as a static one does: each of the 2 workers'
// forwards runs at no more than NumCPU/2.
func TestElasticTrainScopesKernelParallelism(t *testing.T) {
	const workers = 2
	per := max(runtime.NumCPU()/workers, 1)
	if os.Getenv(tensor.ParallelismEnv) != "" || per >= tensor.Parallelism() {
		t.Skipf("%d CPUs leave kernel degree %d nothing to lower for %d workers", runtime.NumCPU(), tensor.Parallelism(), workers)
	}
	var seen atomic.Int64
	base := mlpFactory(51, 4, 8, 3)
	factory := func() *nn.Sequential {
		m := base()
		m.Layers[0] = parallelismProbe{Layer: m.Layers[0], seen: &seen}
		return m
	}
	h := newElasticHarness(membership.Config{})
	h.startNode(t, 0)
	h.startNode(t, 1)
	e := elasticRun(t, h, factory, nil)
	if _, err := e.Train(data.NewBlobs(53, 3, 4, 8, 30), 10); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got == 0 || got > int64(per) {
		t.Fatalf("forwards ran at kernel degree %d, want 1..%d (NumCPU/workers)", got, per)
	}
}
