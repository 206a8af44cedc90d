package pipeline

import (
	"math"
	"strings"
	"testing"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/transport"
)

// trainWith runs one epoch over a fresh pipeline and returns the loss
// trajectory plus the final (collected) parameters.
func trainWith(t *testing.T, opts Options, ds data.Dataset, mbs int) ([]float64, []float32) {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, mbs)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float32
	for _, prm := range p.CollectModel().Params() {
		flat = append(flat, prm.Data...)
	}
	return rep.Losses, flat
}

// TestRingReplicatedStageKeepsReplicasConsistent: with three replicas and
// several buckets per round, after 24 minibatches (8 full rounds of 3)
// all replicas must hold identical weights. A follow-up
// partial round of 2 participants must complete without deadlock and
// leave those two participants in agreement.
func TestRingReplicatedStageKeepsReplicasConsistent(t *testing.T) {
	factory := mlpFactory(21, 4, 8, 3)
	ds := data.NewBlobs(23, 3, 4, 8, 26)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 3),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
		SyncConfig:   SyncConfig{BucketBytes: 96}, // force several buckets per round
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 24); err != nil {
		t.Fatal(err)
	}
	a := p.StageModel(0, 0).Params()
	for rep := 1; rep < 3; rep++ {
		b := p.StageModel(0, rep).Params()
		for i := range a {
			if !a[i].AllClose(b[i], 0) {
				t.Fatalf("replica %d params diverged from replica 0 at tensor %d", rep, i)
			}
		}
	}
	// Partial final round: 2 more minibatches reach replicas 0 and 1 only.
	if _, err := p.Train(ds, 2); err != nil {
		t.Fatal(err)
	}
	a = p.StageModel(0, 0).Params()
	b := p.StageModel(0, 1).Params()
	for i := range a {
		if !a[i].AllClose(b[i], 0) {
			t.Fatalf("partial-round participants diverged at tensor %d", i)
		}
	}
}

// TestRingOverTCPTransport: the chunked collective must produce the same
// training run over real sockets as over in-process channels — the
// result is fixed by the chunk schedule, not the transport.
func TestRingOverTCPTransport(t *testing.T) {
	factory := mlpFactory(61, 4, 8, 3)
	ds := data.NewBlobs(67, 3, 4, 8, 12)
	mk := func(tr transport.Transport) Options {
		return Options{
			ModelFactory: factory,
			Plan:         evenPlan(t, factory, 1, 2),
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
			SyncConfig:   SyncConfig{BucketBytes: 64}, // several chunked rounds per minibatch
			Transport:    tr,
		}
	}
	baseLoss, baseParams := trainWith(t, mk(nil), ds, 12)

	tcp, err := transport.NewTCP(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tcpLoss, tcpParams := trainWith(t, mk(tcp), ds, 12)

	for i := range baseLoss {
		if baseLoss[i] != tcpLoss[i] {
			t.Fatalf("loss[%d]: channels %v vs tcp %v", i, baseLoss[i], tcpLoss[i])
		}
	}
	for i := range baseParams {
		if math.Float32bits(baseParams[i]) != math.Float32bits(tcpParams[i]) {
			t.Fatalf("param[%d]: channels %v vs tcp %v", i, baseParams[i], tcpParams[i])
		}
	}
}

// TestRingVerticalSyncCompatible: vertical sync pins each minibatch to
// one weight version across stages; the ring collective must work under
// it and keep the replicated stage's replicas in exact agreement. (That
// the ring's two-replica sums are the bits a full-gradient exchange
// produced is held by the 2-1/* rows of parent_training.json, which the
// exchange wrote.)
func TestRingVerticalSyncCompatible(t *testing.T) {
	factory := mlpFactory(33, 4, 8, 3)
	ds := data.NewBlobs(35, 3, 4, 8, 16)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 2),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
		Mode:         VerticalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 16); err != nil {
		t.Fatal(err)
	}
	a := p.StageModel(0, 0).Params()
	b := p.StageModel(0, 1).Params()
	for i := range a {
		if !a[i].AllClose(b[i], 0) {
			t.Fatalf("vertical-sync ring replicas diverged at tensor %d", i)
		}
	}
}

// TestOverlapSyncSplitMetrics: with the ring collective and full
// instrumentation, the sync wait must be split into first-bucket and
// tail components, bytes on the wire must be counted, and the new
// columns must show up in the human-readable summary.
func TestOverlapSyncSplitMetrics(t *testing.T) {
	factory := mlpFactory(9, 4, 16, 3)
	ds := data.NewBlobs(7, 3, 4, 8, 16)
	reg := metrics.NewRegistry()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 2),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
		SyncConfig:   SyncConfig{BucketBytes: 128},
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	var replicated bool
	for _, s := range rep.Stages {
		if s.SyncFirstWait < 0 || s.SyncTailWait < 0 {
			t.Fatalf("worker %d: negative sync split %+v", s.Worker, s)
		}
		if d := s.SyncFirstWait + s.SyncTailWait - s.SyncWait; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("worker %d: split %v + %v does not sum to %v",
				s.Worker, s.SyncFirstWait, s.SyncTailWait, s.SyncWait)
		}
		if s.Stage == 0 {
			replicated = true
			if s.WireBytes <= 0 {
				t.Fatalf("worker %d: no collective wire bytes recorded", s.Worker)
			}
		} else if s.WireBytes != 0 {
			t.Fatalf("worker %d: wire bytes on an unreplicated stage", s.Worker)
		}
	}
	if !replicated {
		t.Fatal("no replicated-stage rows in the report")
	}
	sum := rep.StageSummary()
	for _, col := range []string{"sync1st", "synctail", "wire"} {
		if !strings.Contains(sum, col) {
			t.Fatalf("summary missing %q column:\n%s", col, sum)
		}
	}
}

// TestChaosRingDropDelayMatchesCleanRun: the ring under a chaos transport
// that delays and duplicates messages (and drops one, forcing checkpoint
// recovery) must land on exactly the weights of a fault-free ring run.
//
// The plan is a single stage with two replicas, so every message on the
// wire is a gradient chunk: chaos hits only the collective, whose result
// is fixed by the chunk schedule rather than by arrival timing. (With
// multiple stages, delayed activations reorder downstream weight updates
// — inherent pipeline nondeterminism unrelated to the collective.)
func TestChaosRingDropDelayMatchesCleanRun(t *testing.T) {
	factory := mlpFactory(31, 4, 8, 3)
	ds := data.NewBlobs(37, 3, 4, 8, 30)
	const mbs = 20

	mk := func(tr transport.Transport, dir string) Options {
		opts := Options{
			ModelFactory: factory,
			Plan:         evenPlan(t, factory, 1, 2),
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
			SyncConfig:   SyncConfig{BucketBytes: 256},
			Transport:    tr,
		}
		if dir != "" {
			opts.CheckpointDir = dir
			// Must stay a multiple of the replica count: chunk boundaries
			// close all-reduce rounds, so a misaligned checkpoint period
			// would group minibatches differently than the clean run.
			opts.CheckpointEvery = 4
			opts.MaxRecoveries = 3
			opts.WatchdogTimeout = 250 * time.Millisecond
		}
		return opts
	}

	// The reference run checkpoints too (same chunking): chunk drain
	// barriers decide how minibatches group into all-reduce rounds, so
	// both runs must share them.
	_, want := trainWith(t, mk(nil, t.TempDir()), ds, mbs)

	chaos := transport.NewChaos(transport.NewChannels(2, 64), transport.ChaosConfig{
		Seed:      1,
		DelayRate: 0.3,
		DupRate:   0.2,
		MaxDelay:  time.Millisecond,
	})
	defer chaos.Close()
	p, err := New(mk(chaos, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	chaos.DropNext(1) // first gradient chunk vanishes: stall, watchdog, recovery
	rep, err := p.Train(ds, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Recoveries == 0 {
		t.Fatal("chaos drop caused no recovery — the test exercised nothing")
	}
	var got []float32
	for _, prm := range p.CollectModel().Params() {
		got = append(got, prm.Data...)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("param[%d]: recovered ring run %v diverged from clean run %v", i, got[i], want[i])
		}
	}
}
