package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/transport"
)

// TestReportStagesPopulated trains a real 2-stage pipeline with full
// instrumentation and checks every observability quantity is present and
// sane.
func TestReportStagesPopulated(t *testing.T) {
	factory := mlpFactory(3, 4, 16, 3)
	ds := data.NewBlobs(5, 3, 4, 8, 24)
	reg := metrics.NewRegistry()
	log := metrics.NewOpLog(0)
	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 2
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
		Metrics:      reg,
		OpLog:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const mbs = 24
	rep, err := p.Train(ds, mbs)
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Stages) != 2 {
		t.Fatalf("Stages has %d entries, want 2", len(rep.Stages))
	}
	for _, s := range rep.Stages {
		if s.FwdOps != mbs || s.BwdOps != mbs {
			t.Fatalf("worker %d: %d fwd / %d bwd ops, want %d each", s.Worker, s.FwdOps, s.BwdOps, mbs)
		}
		if s.FwdTime <= 0 || s.BwdTime <= 0 || s.Wall <= 0 {
			t.Fatalf("worker %d: non-positive times %+v", s.Worker, s)
		}
		if s.BubbleFraction < 0 || s.BubbleFraction >= 1 {
			t.Fatalf("worker %d: bubble fraction %v outside [0,1)", s.Worker, s.BubbleFraction)
		}
		if s.FwdTime+s.BwdTime+s.SyncWait+s.Idle > 2*s.Wall {
			t.Fatalf("worker %d: component times exceed wall: %+v", s.Worker, s)
		}
		if s.MeanQueueDepth < 0 || s.PeakQueueDepth < 0 || s.MeanStaleness < 0 {
			t.Fatalf("worker %d: negative stats %+v", s.Worker, s)
		}
		if s.PeakStashBytes <= 0 {
			t.Fatalf("worker %d: no stash bytes tracked", s.Worker)
		}
	}
	// With 2 minibatches in flight, stage 0's backward passes see at
	// least one interleaved update: staleness must be observed.
	if rep.Stages[0].MaxStaleness < 1 {
		t.Fatalf("stage 0 max staleness %d, want >= 1 at depth 2", rep.Stages[0].MaxStaleness)
	}

	// Human-readable summary: header plus one row per worker.
	sum := rep.StageSummary()
	if lines := strings.Count(strings.TrimRight(sum, "\n"), "\n") + 1; lines != 3 {
		t.Fatalf("summary has %d lines, want 3:\n%s", lines, sum)
	}
	if !strings.Contains(sum, "bubble") || !strings.Contains(sum, "stale") {
		t.Fatalf("summary missing columns:\n%s", sum)
	}

	// Registry: per-stage instruments and arena counters, valid JSON.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	fwd, ok := snap["pipeline.s0.r0.forward_us"].(map[string]any)
	if !ok || fwd["count"].(float64) != mbs {
		t.Fatalf("registry forward histogram: %v", snap["pipeline.s0.r0.forward_us"])
	}
	for _, k := range []string{"tensor.pool.hits", "tensor.pool.misses", "tensor.pool.puts",
		"pipeline.s1.r0.backward_us", "pipeline.s0.r0.stash_bytes", "pipeline.s0.r0.staleness"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("registry snapshot missing %q (have %d keys)", k, len(snap))
		}
	}

	// Op log: one forward and one backward per worker per minibatch.
	var fwds, bwds int
	for _, ev := range log.Events() {
		switch ev.Kind {
		case metrics.OpForward:
			fwds++
		case metrics.OpBackward:
			bwds++
			if ev.Staleness < 0 {
				t.Fatalf("negative staleness in op log: %+v", ev)
			}
		}
		if ev.Start < 0 || ev.Dur <= 0 {
			t.Fatalf("bad op timing: %+v", ev)
		}
	}
	if fwds != 2*mbs || bwds != 2*mbs {
		t.Fatalf("op log has %d forwards / %d backwards, want %d each", fwds, bwds, 2*mbs)
	}

	// Per-run stats reset: a second epoch reports its own op counts.
	rep2, err := p.Train(ds, mbs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stages[0].FwdOps != mbs {
		t.Fatalf("second Train call reports %d fwd ops, want %d (stats must reset per run)",
			rep2.Stages[0].FwdOps, mbs)
	}
}

// TestReplicatedStageRecordsSyncWait checks that the in-process
// slowSend is a transport whose every Send blocks sendDelay first.
type slowSend struct{ transport.Transport }

const sendDelay = 2 * time.Millisecond

func (s slowSend) Send(to int, m transport.Message) error {
	time.Sleep(sendDelay)
	return s.Transport.Send(to, m)
}

// A stage's compute time leaves out the time it blocks in Send: over a
// transport whose every Send takes 2 ms, a small MLP's forward and
// backward passes still average under 2 ms each on a three-stage chain,
// and SendTime holds every activation and upstream-gradient send.
func TestComputeTimeExcludesSends(t *testing.T) {
	factory := mlpFactory(3, 4, 16, 3)
	plan := evenPlan(t, factory, 3, 1)
	tr := slowSend{transport.NewChannels(plan.Workers, 64)}
	defer tr.Close()
	opts := baseOptions(factory, plan)
	opts.Plan = plan // its own depth
	opts.Transport = tr
	opts.Metrics = metrics.NewRegistry()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const mbs = 12
	rep, err := p.Train(data.NewBlobs(5, 3, 4, 8, mbs), mbs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Stages {
		sends := 0
		if s.Stage < len(plan.Stages)-1 {
			sends += s.FwdOps // the activation downstream
		}
		if s.Stage > 0 {
			sends += s.BwdOps // the gradient upstream
		}
		if fwd, bwd := s.FwdTime/time.Duration(s.FwdOps), s.BwdTime/time.Duration(s.BwdOps); fwd >= sendDelay || bwd >= sendDelay {
			t.Errorf("stage %d: %v per forward, %v per backward; a send takes %v and is not compute", s.Stage, fwd, bwd, sendDelay)
		}
		if want := time.Duration(sends) * sendDelay; s.SendTime < want {
			t.Errorf("stage %d: SendTime %v over %d sends of %v each, want ≥ %v", s.Stage, s.SendTime, sends, sendDelay, want)
		}
	}
}

// all_reduce of a replicated stage shows up as gradient-sync wait.
func TestReplicatedStageRecordsSyncWait(t *testing.T) {
	factory := mlpFactory(9, 4, 16, 3)
	ds := data.NewBlobs(7, 3, 4, 8, 16)
	log := metrics.NewOpLog(0)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 2),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
		OpLog:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	var synced bool
	for _, s := range rep.Stages {
		if s.Stage == 0 && s.SyncWait > 0 {
			synced = true
		}
	}
	if !synced {
		t.Fatalf("no sync wait recorded on the replicated stage: %+v", rep.Stages)
	}
	var syncEvents int
	for _, ev := range log.Events() {
		if ev.Kind == metrics.OpSync {
			syncEvents++
		}
	}
	if syncEvents == 0 {
		t.Fatal("no sync ops in the op log")
	}
}

// TestMetricsOffLeavesReportBare confirms the default path records
// nothing.
func TestMetricsOffLeavesReportBare(t *testing.T) {
	factory := mlpFactory(1, 4, 8, 3)
	ds := data.NewBlobs(2, 3, 4, 8, 6)
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Train(ds, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages != nil {
		t.Fatalf("Stages populated without instrumentation: %+v", rep.Stages)
	}
	if rep.StageSummary() != "" {
		t.Fatal("StageSummary must be empty when instrumentation is off")
	}
}
