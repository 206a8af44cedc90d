package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/transport"
)

// breakAtDataset severs a TCP connection the first time minibatch
// `at` is admitted — a deterministic mid-epoch fault injection point
// (Batch is called by the input stage's admission path).
type breakAtDataset struct {
	data.Dataset
	at    int
	hook  func()
	fired bool
}

func (b *breakAtDataset) Batch(i int) data.Batch {
	if i == b.at && !b.fired {
		b.fired = true
		b.hook()
	}
	return b.Dataset.Batch(i)
}

// Acceptance: a seeded chaos schedule that severs a live TCP connection
// mid-epoch and delays 10% of messages must not change training at all —
// the transport reconnects transparently and, at depth 1, delays cannot
// reorder — so the final losses equal the fault-free baseline.
func TestChaosSeverDelayMatchesBaseline(t *testing.T) {
	factory := mlpFactory(21, 4, 8, 3)
	ds := data.NewBlobs(23, 3, 4, 8, 30)
	const mbs = 30

	run := func(tr transport.Transport, ds data.Dataset) []float64 {
		t.Helper()
		plan := evenPlan(t, factory, 3, 1)
		plan.Depth = 1 // strictly sequential: delays cannot reorder
		p, err := New(Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
			Transport:    tr,
		})
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

	baseline := run(nil, ds) // in-process channels, fault-free

	tcp, err := transport.NewTCP(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	chaos := transport.NewChaos(tcp, transport.ChaosConfig{
		Seed:      99,
		DelayRate: 0.1,
		MaxDelay:  2 * time.Millisecond,
	})
	defer chaos.Close()
	faulty := run(chaos, &breakAtDataset{
		Dataset: ds, at: mbs / 2,
		hook: func() { tcp.BreakConn(1); tcp.BreakConn(2) },
	})

	for i := range baseline {
		if d := baseline[i] - faulty[i]; d > 1e-7 || d < -1e-7 {
			t.Fatalf("loss[%d]: baseline %v vs chaos %v", i, baseline[i], faulty[i])
		}
	}
	if s := chaos.Stats(); s.Delays == 0 {
		t.Fatal("chaos schedule injected no delays — the test exercised nothing")
	}
}

// A dropped message stalls the pipeline; the watchdog must trip, recovery
// must restore from the last complete checkpoint generation, and the
// resumed run must land on exactly the weights of a fault-free run.
func TestChaosDropRecoveryMatchesCleanRun(t *testing.T) {
	factory := mlpFactory(31, 4, 8, 3)
	ds := data.NewBlobs(37, 3, 4, 8, 30)
	const mbs = 20

	mk := func(tr transport.Transport, dir string) *Pipeline {
		t.Helper()
		plan := evenPlan(t, factory, 2, 1)
		plan.Depth = 1
		opts := Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
			Transport:    tr,
		}
		if dir != "" {
			opts.CheckpointDir = dir
			opts.CheckpointEvery = 5
			opts.MaxRecoveries = 3
			opts.WatchdogTimeout = 250 * time.Millisecond
		}
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	ref := mk(nil, "")
	defer ref.Close()
	if _, err := ref.Train(ds, mbs); err != nil {
		t.Fatal(err)
	}

	chaos := transport.NewChaos(transport.NewChannels(2, 16), transport.ChaosConfig{Seed: 1})
	defer chaos.Close()
	p := mk(chaos, t.TempDir())
	defer p.Close()
	chaos.DropNext(1) // the very first activation vanishes: instant stall
	rep, err := p.Train(ds, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", rep.Faults.Recoveries)
	}
	if rep.Faults.CheckpointWrites == 0 {
		t.Fatal("no checkpoint generations written")
	}

	got := p.CollectModel().Params()
	want := ref.CollectModel().Params()
	for i := range want {
		if !got[i].AllClose(want[i], 0) {
			t.Fatalf("param %d: recovered run diverged from clean run", i)
		}
	}
}

// When every message is dropped, recovery cannot make progress; after
// MaxRecoveries the typed stall error must surface (never a hang or a
// panic).
func TestChaosRecoveryExhaustedSurfacesTypedError(t *testing.T) {
	factory := mlpFactory(41, 4, 8, 3)
	ds := data.NewBlobs(43, 3, 4, 8, 30)
	chaos := transport.NewChaos(transport.NewChannels(2, 16), transport.ChaosConfig{Seed: 2, DropRate: 1})
	defer chaos.Close()
	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Transport:    chaos,
		FaultConfig:  FaultConfig{CheckpointDir: t.TempDir(), CheckpointEvery: 5, MaxRecoveries: 1, WatchdogTimeout: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, err = p.Train(ds, 10)
	if !errors.Is(err, ErrWorkerStalled) {
		t.Fatalf("Train under total message loss: %v, want ErrWorkerStalled", err)
	}
}

// A severed path surfaces as the transport's typed peer-down error when
// recovery is not configured.
func TestChaosSeveredPeerSurfacesErrPeerDown(t *testing.T) {
	factory := mlpFactory(47, 4, 8, 3)
	ds := data.NewBlobs(53, 3, 4, 8, 30)
	chaos := transport.NewChaos(transport.NewChannels(2, 16), transport.ChaosConfig{Seed: 3})
	defer chaos.Close()
	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Transport:    chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	chaos.Sever(1)
	if _, err := p.Train(ds, 10); !errors.Is(err, transport.ErrPeerDown) {
		t.Fatalf("Train over severed path: %v, want ErrPeerDown", err)
	}
}

// The heartbeat prober detects a dead neighbour at the SENDER: the send
// fails with ErrPeerDown and the run aborts without waiting for any
// receiver-side watchdog.
func TestChaosHeartbeatDetectsSeveredPeer(t *testing.T) {
	factory := mlpFactory(59, 4, 8, 3)
	chaos := transport.NewChaos(transport.NewChannels(2, 4), transport.ChaosConfig{Seed: 4})
	defer chaos.Close()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Transport:    chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	chaos.Sever(1)
	ab := newRunAbort()
	stop := make(chan struct{})
	defer close(stop)
	go p.workers[0].heartbeatLoop(5*time.Millisecond, stop, ab)
	select {
	case <-ab.ch:
		if err := ab.error(); !errors.Is(err, transport.ErrPeerDown) {
			t.Fatalf("heartbeat abort: %v, want ErrPeerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat never detected the severed peer")
	}
}

// Race-detector soak: a lossy, laggy, duplicating transport with recovery
// enabled must either complete training or surface a typed error — never
// deadlock, never panic, never race.
func TestChaosSoakRecoversOrFailsTyped(t *testing.T) {
	factory := mlpFactory(71, 4, 8, 3)
	ds := data.NewBlobs(73, 3, 4, 8, 30)
	chaos := transport.NewChaos(transport.NewChannels(3, 64), transport.ChaosConfig{
		Seed:      7,
		DropRate:  0.01,
		DelayRate: 0.2,
		DupRate:   0.1,
		MaxDelay:  3 * time.Millisecond,
	})
	defer chaos.Close()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 3, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		Transport:    chaos,
		FaultConfig:  FaultConfig{CheckpointDir: t.TempDir(), CheckpointEvery: 10, MaxRecoveries: 8, WatchdogTimeout: 400 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	done := make(chan error, 1)
	go func() {
		_, err := p.Train(ds, 40)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrWorkerStalled) && !errors.Is(err, transport.ErrPeerDown) {
			t.Fatalf("soak failed with untyped error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("soak deadlocked")
	}
}

// Mid-training checkpoints + restore into a NEW process must continue the
// exact trajectory of an uninterrupted run (crash/resume equivalence).
func TestChaosMidTrainingCheckpointResumeEquivalence(t *testing.T) {
	factory := mlpFactory(79, 4, 8, 3)
	ds := data.NewBlobs(83, 3, 4, 8, 30)
	mk := func(dir string) *Pipeline {
		t.Helper()
		plan := evenPlan(t, factory, 2, 1)
		plan.Depth = 1
		opts := Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		}
		if dir != "" {
			opts.CheckpointDir = dir
			opts.CheckpointEvery = 5
		}
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := mk("")
	defer ref.Close()
	if _, err := ref.Train(ds, 30); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	p1 := mk(dir)
	if _, err := p1.Train(ds, 15); err != nil { // gens at 5, 10, 15
		t.Fatal(err)
	}
	p1.Close() // "crash": the process is gone; only the directory survives

	cur, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 15 {
		t.Fatalf("checkpoint.Latest = %d, want 15", cur)
	}
	p2 := mk(dir)
	defer p2.Close()
	if err := p2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Train(ds, 15); err != nil {
		t.Fatal(err)
	}
	got := p2.CollectModel().Params()
	want := ref.CollectModel().Params()
	for i := range want {
		if !got[i].AllClose(want[i], 1e-6) {
			t.Fatalf("param %d: resumed run diverged from uninterrupted run", i)
		}
	}
}

// An incomplete newest generation (missing stage file) must be skipped in
// favour of the last complete one; a corrupt or mixed generation must
// fail loudly.
func TestRestoreGenerationValidation(t *testing.T) {
	factory := mlpFactory(89, 4, 8, 3)
	ds := data.NewBlobs(97, 3, 4, 8, 30)
	mk := func() *Pipeline {
		t.Helper()
		plan := evenPlan(t, factory, 2, 1)
		plan.Depth = 1
		p, err := New(Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := mk()
	defer p.Close()
	dir := t.TempDir()
	if _, err := p.Train(ds, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(dir); err != nil { // gen-5
		t.Fatal(err)
	}
	if _, err := p.Train(ds, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(dir); err != nil { // gen-10
		t.Fatal(err)
	}

	// Torn newest generation: delete one stage file → restore must fall
	// back to gen-5.
	torn := filepath.Join(dir, "gen-00000010", "stage01_replica00.ckpt")
	if err := os.Remove(torn); err != nil {
		t.Fatal(err)
	}
	r := mk()
	defer r.Close()
	if err := r.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if cur := r.Cursor(); cur != 5 {
		t.Fatalf("restored cursor %d, want fallback to 5", cur)
	}

	// Corrupt stage file in the surviving generation: loud failure.
	bad := filepath.Join(dir, "gen-00000005", "stage00_replica00.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mk().Restore(dir); err == nil {
		t.Fatal("corrupt stage file restored silently")
	}
}

// A stage file copied between generations (mixed checkpoint) must be
// rejected by the per-file generation tag.
func TestRestoreRejectsMixedGenerations(t *testing.T) {
	factory := mlpFactory(101, 4, 8, 3)
	ds := data.NewBlobs(103, 3, 4, 8, 30)
	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dir := t.TempDir()
	if _, err := p.Train(ds, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(ds, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Splice a gen-5 stage file into gen-10.
	old, err := os.ReadFile(filepath.Join(dir, "gen-00000005", "stage00_replica00.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gen-00000010", "stage00_replica00.ckpt"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	err = p.Restore(dir)
	if err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Fatalf("mixed-generation restore: %v, want mixed-checkpoint error", err)
	}
}

// The four failure counters must appear in the registry's JSON snapshot
// even when zero, and pipeline.checkpoint_writes must count writes.
func TestFaultCountersInMetricsJSON(t *testing.T) {
	factory := mlpFactory(107, 4, 8, 3)
	ds := data.NewBlobs(109, 3, 4, 8, 30)
	reg := metrics.NewRegistry()
	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 1
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		Metrics:      reg,
		FaultConfig:  FaultConfig{CheckpointDir: t.TempDir(), CheckpointEvery: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.CheckpointWrites != 2 {
		t.Fatalf("CheckpointWrites = %d, want 2", rep.Faults.CheckpointWrites)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pipeline.recoveries", "pipeline.checkpoint_writes",
		"transport.reconnects", "transport.send_errors", "transport.recv_errors",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("metrics JSON missing %q:\n%s", name, buf.String())
		}
	}
}

// TestRecoveryReturnsDroppedTensorsToPool: a recovery drops the in-flight
// state of every worker — its inbox, the deliveries waiting for their op,
// the per-edge arrivals, the stash — and hands each pooled tensor in it
// back. A message dropped mid-run stalls a 3-stage pipeline with
// minibatches in flight at every stage; once the recovered run has ended
// and the pipeline has closed, the pool's balance (hits + misses − puts)
// is what it was before the run.
func TestRecoveryReturnsDroppedTensorsToPool(t *testing.T) {
	factory := mlpFactory(31, 4, 8, 3)
	ds := data.NewBlobs(37, 3, 4, 8, 30)
	plan := evenPlan(t, factory, 3, 1)
	chaos := transport.NewChaos(transport.NewChannels(3, 16), transport.ChaosConfig{Seed: 1})
	before := outstanding()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		Transport:    chaos,
		FaultConfig:  FaultConfig{CheckpointDir: t.TempDir(), CheckpointEvery: 5, MaxRecoveries: 3, WatchdogTimeout: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Train(&breakAtDataset{Dataset: ds, at: 8, hook: func() { chaos.DropNext(1) }}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Recoveries == 0 {
		t.Fatal("no recovery ran — the test exercised nothing")
	}
	p.Close()
	chaos.Close()
	if held := outstanding() - before; held != 0 {
		t.Errorf("%d pooled tensors outstanding after a recovered run, want 0", held)
	}
}
