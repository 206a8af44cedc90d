package pipeline

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/transport"
)

// freeAddrs reserves n concrete loopback addresses: endpoints of one
// deployment share the list, so ":0" per endpoint would leave peers
// unable to know each other's ports.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// endpoint builds the Pipeline of one process of a deployment: a TCP
// endpoint hosting the workers in local (optionally wrapped, as
// pipedream-train -peers wraps it in Chaos) and the stage workers New
// derives from it. Both are torn down with the test.
func endpoint(t *testing.T, opts Options, addrs []string, local []int, wrap func(*transport.TCP) transport.Transport) *Pipeline {
	t.Helper()
	tcp, err := transport.ListenTCP(addrs, local, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts.Transport = tcp
	if wrap != nil {
		opts.Transport = wrap(tcp)
	}
	t.Cleanup(func() { opts.Transport.Close() })
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// trainAll runs Train(ds, n) on every process's Pipeline concurrently, as
// the processes of a deployment do, and sums their loss reports (only the
// process hosting a sink reports non-zero losses).
func trainAll(t *testing.T, ps []*Pipeline, ds data.Dataset, n int) []float64 {
	t.Helper()
	losses := make([]float64, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *Pipeline) {
			defer wg.Done()
			rep, err := p.Train(ds, n)
			if err != nil {
				t.Errorf("process %d: %v", i, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for mb, l := range rep.Losses {
				losses[mb] += l
			}
		}(i, p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return losses
}

func baseOptions(factory func() *nn.Sequential, plan *partition.Plan) Options {
	q := *plan
	q.Depth = 1
	return Options{
		ModelFactory: factory,
		Plan:         &q,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
	}
}

// The runtime is one program parameterised by its local worker set: the
// same 3-worker plan trained with all workers in one Pipeline over
// NewTCP, and as three Pipelines with one local worker each over one
// shared address list, must agree bit for bit at depth 1 — losses and
// final weights — whether the one-worker processes run straight through,
// behind a duplicating and delaying Chaos wrapper (dedup), or are torn
// down at a checkpoint and resumed as new processes.
func TestLocalWorkerSetsTrainBitEqual(t *testing.T) {
	factory := mlpFactory(7, 4, 8, 3)
	ds := data.NewBlobs(11, 3, 4, 8, 12)
	const mbs = 12
	opts := baseOptions(factory, evenPlan(t, factory, 3, 1))

	tcp, err := transport.NewTCP(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	allOpts := opts
	allOpts.Transport = tcp
	all, err := New(allOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := trainAll(t, []*Pipeline{all}, ds, mbs)

	split := func(t *testing.T, wrap func(*transport.TCP) transport.Transport) []*Pipeline {
		addrs := freeAddrs(t, 3)
		ps := make([]*Pipeline, 3)
		for w := range ps {
			ps[w] = endpoint(t, opts, addrs, []int{w}, wrap)
			if len(ps[w].workers) != 1 || ps[w].workers[0].id != w {
				t.Fatalf("process %d hosts %d workers, want exactly worker %d", w, len(ps[w].workers), w)
			}
		}
		return ps
	}
	cases := []struct {
		name string
		run  func(t *testing.T) ([]*Pipeline, []float64)
	}{
		{"one-worker-per-process", func(t *testing.T) ([]*Pipeline, []float64) {
			ps := split(t, nil)
			return ps, trainAll(t, ps, ds, mbs)
		}},
		{"chaos-dup-delay", func(t *testing.T) ([]*Pipeline, []float64) {
			ps := split(t, func(tcp *transport.TCP) transport.Transport {
				return transport.NewChaos(tcp, transport.ChaosConfig{Seed: 5, DupRate: 0.3, DelayRate: 0.2, MaxDelay: time.Millisecond})
			})
			return ps, trainAll(t, ps, ds, mbs)
		}},
		{"checkpoint-resume", func(t *testing.T) ([]*Pipeline, []float64) {
			dir := t.TempDir()
			first := split(t, nil)
			got := trainAll(t, first, ds, mbs/2)
			for _, p := range first {
				if err := p.Checkpoint(dir); err != nil { // each process writes its own shard
					t.Fatal(err)
				}
				p.tr.Close()
			}
			resumed := split(t, nil)
			for _, p := range resumed {
				if err := p.Restore(dir); err != nil {
					t.Fatal(err)
				}
				if p.Cursor() != mbs/2 {
					t.Fatalf("restored cursor %d, want %d", p.Cursor(), mbs/2)
				}
			}
			return resumed, append(got, trainAll(t, resumed, ds, mbs/2)...)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps, got := c.run(t)
			for mb := range want {
				if got[mb] != want[mb] {
					t.Fatalf("loss[%d]: %v split over processes vs %v all-local", mb, got[mb], want[mb])
				}
			}
			for s, p := range ps {
				if p.StageModel((s+1)%3, 0) != nil {
					t.Fatalf("process %d exposes a stage it does not host", s)
				}
				wantP := all.StageModel(s, 0).Params()
				for i, g := range p.StageModel(s, 0).Params() {
					if !g.AllClose(wantP[i], 0) {
						t.Fatalf("stage %d param %d differs between deployments", s, i)
					}
				}
			}
		})
	}
}

// A stage whose replicas live in different processes synchronizes through
// the message-based gradient exchange — the distributed 1F1B-RR
// configuration end to end. Full rounds keep the replicas' weights
// identical; an odd minibatch count leaves a partial final round that
// must complete without deadlock (the lone participant steps alone).
func TestLocalWorkerSetsReplicatedStage(t *testing.T) {
	factory := mlpFactory(13, 4, 8, 3)
	plan := evenPlan(t, factory, 2, 2) // 2-1: stage 0 replicated twice
	for _, mbs := range []int{20, 21} {
		ds := data.NewBlobs(17, 3, 4, 8, mbs)
		opts := baseOptions(factory, plan)
		opts.Plan = plan // its own depth
		addrs := freeAddrs(t, 3)
		ps := make([]*Pipeline, 3)
		for w := range ps {
			ps[w] = endpoint(t, opts, addrs, []int{w}, nil)
		}
		for epoch := 0; epoch < 2; epoch++ {
			trainAll(t, ps, ds, mbs)
		}
		if mbs%2 != 0 {
			continue // the lone participant of the partial round stepped alone
		}
		a, b := ps[0].StageModel(0, 0).Params(), ps[1].StageModel(0, 1).Params()
		for i := range a {
			if !a[i].AllClose(b[i], 0) {
				t.Fatalf("replicas in different processes diverged at param %d", i)
			}
		}
	}
}

// The gradient exchange sums contributions in ascending replica index, so
// with three replicas — where float addition order matters — training is
// a pure function of its inputs: two runs agree bit for bit, and the
// replicas agree with each other.
func TestGradientExchangeIsDeterministicAcrossThreeReplicas(t *testing.T) {
	factory := mlpFactory(29, 4, 8, 3)
	ds := data.NewBlobs(31, 3, 4, 8, 18)
	opts := baseOptions(factory, evenPlan(t, factory, 1, 3))
	run := func() ([]float64, []*Pipeline) {
		addrs := freeAddrs(t, 3)
		ps := make([]*Pipeline, 3)
		for w := range ps {
			ps[w] = endpoint(t, opts, addrs, []int{w}, nil)
		}
		return trainAll(t, ps, ds, 18), ps
	}
	l1, p1 := run()
	l2, p2 := run()
	for mb := range l1 {
		if math.Float64bits(l1[mb]) != math.Float64bits(l2[mb]) {
			t.Fatalf("loss[%d] differs between two identical runs: %v vs %v", mb, l1[mb], l2[mb])
		}
	}
	ref := p1[0].StageModel(0, 0).Params()
	for r := 0; r < 3; r++ {
		for _, ps := range [][]*Pipeline{p1, p2} {
			for i, g := range ps[r].StageModel(0, r).Params() {
				if !g.AllClose(ref[i], 0) {
					t.Fatalf("replica %d param %d is not bit-equal across replicas and runs", r, i)
				}
			}
		}
	}
}

// A process whose upstream never starts (the peer process died before
// connecting) trips its watchdog with the typed stall error.
func TestLocalWorkerWatchdogTripsOnDeadUpstream(t *testing.T) {
	factory := mlpFactory(61, 4, 8, 3)
	ds := data.NewBlobs(67, 3, 4, 8, 30)
	opts := baseOptions(factory, evenPlan(t, factory, 2, 1))
	opts.WatchdogTimeout = 150 * time.Millisecond
	p := endpoint(t, opts, freeAddrs(t, 2), []int{1}, nil) // stage 1; nobody hosts stage 0
	if _, err := p.Train(ds, 5); !errors.Is(err, ErrWorkerStalled) {
		t.Fatalf("train with dead upstream: %v, want ErrWorkerStalled", err)
	}
}

// bareWrapper wraps a transport without forwarding its Local method.
type bareWrapper struct{ transport.Transport }

// New learns the local worker set from the transport's Local method, so a
// wrapper that does not forward it reads as hosting every worker. Nothing
// at construction can tell (probing an inbox could swallow a peer's first
// message); the workers built on inboxes the endpoint does not host fail
// Train with the typed closed-inbox error instead of hanging.
func TestWrapperNotForwardingLocalFailsTrainWithErrClosed(t *testing.T) {
	factory := mlpFactory(71, 4, 8, 3)
	ds := data.NewBlobs(73, 3, 4, 8, 12)
	opts := baseOptions(factory, evenPlan(t, factory, 3, 1))
	p := endpoint(t, opts, freeAddrs(t, 3), []int{0}, func(tcp *transport.TCP) transport.Transport {
		tcp.RedialTimeout = 200 * time.Millisecond
		return bareWrapper{tcp}
	})
	if len(p.workers) != 3 {
		t.Fatalf("built %d workers, want all 3 (the wrapper hides the local set)", len(p.workers))
	}
	done := make(chan error, 1)
	go func() { _, err := p.Train(ds, 4); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("train: %v, want transport.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Train hung on workers built over inboxes the endpoint does not host")
	}
}

// A peer process that dies at a checkpoint barrier and is restarted on
// the same address resumes from its own shard. The survivor's first
// activation goes into the half-open connection to the dead process and
// is normally lost (TCP accepts one write before the RST); both sides
// then stall, trip their watchdogs, restore generation 10 and try again —
// this time the broken connection is detected and re-dialed — and
// together they land on exactly the weights of an uninterrupted run.
func TestLocalWorkerSetsPeerRestartResumes(t *testing.T) {
	factory := mlpFactory(79, 4, 8, 3)
	ds := data.NewBlobs(83, 3, 4, 8, 20)
	plan := evenPlan(t, factory, 2, 1)

	ref, err := New(baseOptions(factory, plan))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Train(ds, 20); err != nil {
		t.Fatal(err)
	}

	opts := baseOptions(factory, plan)
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointEvery = 5
	opts.MaxRecoveries = 10
	opts.WatchdogTimeout = 300 * time.Millisecond
	addrs := freeAddrs(t, 2)
	a := endpoint(t, opts, addrs, []int{0}, nil)
	b := endpoint(t, opts, addrs, []int{1}, nil)
	trainAll(t, []*Pipeline{a, b}, ds, 10) // generations 5 and 10
	b.tr.Close()                           // process b is gone; only its shards survive

	done := make(chan error, 1)
	go func() {
		_, err := a.Train(ds, 10)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // shapes the scenario (a runs alone for a while); nothing waits on it
	b2 := endpoint(t, opts, addrs, []int{1}, nil)
	if err := b2.Restore(opts.CheckpointDir); err != nil {
		t.Fatal(err)
	}
	if b2.Cursor() != 10 {
		t.Fatalf("replacement resumed at %d, want 10", b2.Cursor())
	}
	if _, err := b2.Train(ds, 10); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for s, p := range []*Pipeline{a, b2} {
		want := ref.StageModel(s, 0).Params()
		for i, g := range p.StageModel(s, 0).Params() {
			if !g.AllClose(want[i], 0) {
				t.Fatalf("stage %d param %d: restarted deployment diverged from the uninterrupted run", s, i)
			}
		}
	}
}
