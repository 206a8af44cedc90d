package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// ErrWorkerStalled reports that a stage worker made no progress for longer
// than Options.WatchdogTimeout — the pipeline's failure detector tripped
// (a peer died, a message was lost, or the pipeline wedged). Match with
// errors.Is; when recovery is enabled the pipeline handles it internally
// and it only escapes after MaxRecoveries attempts.
var ErrWorkerStalled = errors.New("pipeline: worker stalled")

// FaultStats summarizes the failure-path activity of one Train
// call: how often the runtime recovered from a detected
// failure, how many mid-training checkpoints it wrote, and the transport's
// reconnect and send/receive-error counts (zero unless the transport
// reports stats).
type FaultStats struct {
	// Recoveries counts supervised restore-and-resume cycles.
	Recoveries int
	// CheckpointWrites counts checkpoint generations written.
	CheckpointWrites int
	// TransportReconnects, TransportSendErrors and TransportRecvErrors
	// mirror the transport's cumulative counters for this call's duration.
	TransportReconnects int64
	TransportSendErrors int64
	TransportRecvErrors int64
}

// runAbort coordinates failure propagation across the workers of one
// chunk: the first failure wins, every blocked worker is woken, and the
// error is collected after the WaitGroup drains.
type runAbort struct {
	ch   chan struct{}
	once sync.Once
	mu   sync.Mutex
	err  error
}

func newRunAbort() *runAbort {
	return &runAbort{ch: make(chan struct{})}
}

// fail records the first error and closes the abort channel so workers
// blocked on inboxes see it. It returns err, for the failing worker to
// return in turn.
func (a *runAbort) fail(err error) error {
	a.once.Do(func() {
		a.mu.Lock()
		a.err = err
		a.mu.Unlock()
		close(a.ch)
	})
	return err
}

// failed reports (non-blocking) whether any worker has failed.
func (a *runAbort) failed() bool {
	select {
	case <-a.ch:
		return true
	default:
		return false
	}
}

func (a *runAbort) error() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// waitMsg blocks until one non-heartbeat message is enqueued, the run
// aborts, or the watchdog trips. The watchdog deadline derives from the
// worker's last useful progress (completed op or accepted message) —
// heartbeats deliberately do NOT reset it, so a pipeline that is merely
// alive but not advancing still trips the detector.
func (sw *stageWorker) waitMsg(ab *runAbort, countIdle bool) error {
	inbox := sw.p.tr.Inbox(sw.id)
	watchdog := sw.p.opts.WatchdogTimeout
	var idle0 time.Time
	if countIdle && sw.met != nil {
		idle0 = time.Now()
		defer func() { sw.met.idleTime += time.Since(idle0) }()
	}
	for {
		var timeout <-chan time.Time
		var timer *time.Timer
		if watchdog > 0 {
			remain := time.Until(sw.lastProgress.Add(watchdog))
			if remain <= 0 {
				return ab.fail(fmt.Errorf("pipeline: worker %d no progress for %v: %w", sw.id, watchdog, ErrWorkerStalled))
			}
			timer = time.NewTimer(remain)
			timeout = timer.C
		}
		select {
		case m, ok := <-inbox:
			if timer != nil {
				timer.Stop()
			}
			if !ok {
				return ab.fail(fmt.Errorf("pipeline: worker %d inbox: %w", sw.id, transport.ErrClosed))
			}
			if m.Kind == transport.Heartbeat {
				continue // liveness only; not progress
			}
			sw.lastProgress = time.Now()
			sw.enqueue(m)
			return nil
		case <-ab.ch:
			if timer != nil {
				timer.Stop()
			}
			return ab.error()
		case <-timeout:
			return ab.fail(fmt.Errorf("pipeline: worker %d no progress for %v: %w", sw.id, watchdog, ErrWorkerStalled))
		}
	}
}

// heartbeatLoop periodically probes this worker's pipeline neighbours
// (adjacent stages and sibling replicas) with Heartbeat messages. The
// probe's value is at the SENDER: a dead peer surfaces as ErrPeerDown on
// the send, failing the run immediately instead of waiting for the
// receiver-side watchdog.
func (sw *stageWorker) heartbeatLoop(every time.Duration, stop <-chan struct{}, ab *runAbort) {
	targets := sw.neighbours()
	if len(targets) == 0 {
		return
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ab.ch:
			return
		case <-ticker.C:
			for _, t := range targets {
				if err := sw.p.tr.Send(t, transport.Message{Kind: transport.Heartbeat, Minibatch: -1}); err != nil {
					if errors.Is(err, transport.ErrPeerDown) {
						ab.fail(fmt.Errorf("pipeline: worker %d heartbeat to %d: %w", sw.id, t, err))
					}
					return
				}
			}
		}
	}
}

// neighbours lists the workers this one exchanges traffic with: all
// replicas of the stages adjacent in the plan's stage graph (every
// predecessor and successor edge, not just stage±1) plus its own stage's
// siblings.
func (sw *stageWorker) neighbours() []int {
	var out []int
	stages := sw.p.assign.StageWorkers
	for _, s := range sw.preds {
		out = append(out, stages[s]...)
	}
	for _, s := range sw.succs {
		out = append(out, stages[s]...)
	}
	for _, w := range stages[sw.stage] {
		if w != sw.id {
			out = append(out, w)
		}
	}
	return out
}

// resetTransient clears one worker's in-flight state — arrived-sets, stashes,
// dedup sets, accumulated gradients — so a restore starts from a clean
// slate. Inbox contents are drained and discarded (they reference
// pre-failure weight versions). Every pooled tensor dropped goes back to
// the pool: a stash entry's as its backward would have released them.
func (sw *stageWorker) resetTransient() {
	inbox := sw.p.tr.Inbox(sw.id)
drain:
	for {
		select {
		case m, ok := <-inbox:
			if !ok {
				break drain
			}
			tensor.Put(m.Tensor)
		default:
			break drain
		}
	}
	for mb, e := range sw.stash {
		grad := sw.bwdReady[mb].Tensor
		delete(sw.bwdReady, mb)
		if e.weights != nil {
			sw.weights.release(e.weights)
		}
		if e.ctx != nil {
			sw.model.Discard(e.ctx)
		}
		if len(sw.preds) > 0 && !tensor.SharesStorage(e.input, grad) {
			tensor.Put(e.input)
		}
		tensor.Put(grad)
		tensor.Put(e.output)
	}
	for _, ready := range []map[int]transport.Message{sw.fwdReady, sw.bwdReady} {
		for _, m := range ready {
			tensor.Put(m.Tensor)
		}
	}
	for _, pend := range sw.fwdPend {
		for _, m := range pend {
			tensor.Put(m.Tensor)
		}
	}
	for _, pend := range sw.gradPend {
		for _, g := range pend {
			tensor.Put(g)
		}
	}
	sw.fwdReady = make(map[int]transport.Message)
	sw.bwdReady = make(map[int]transport.Message)
	sw.stash = make(map[int]stashEntry)
	sw.seenFwd = nil
	sw.fwdPend = nil
	sw.gradPend = nil
	sw.accumCount = 0
	sw.stashBytes = 0
	sw.syncDur = 0
	sw.syncFirst = 0
	sw.ringErr = nil
	if sw.ring != nil {
		sw.ring.Reset()
	}
}

// autoRecover reports whether this pipeline supervises failures itself
// (restore + resume) instead of surfacing them to the caller.
func (p *Pipeline) autoRecover() bool {
	return p.opts.CheckpointDir != "" && p.opts.MaxRecoveries > 0
}

// recoverFromCheckpoint drains all transient state and restores every
// local worker from the latest complete checkpoint generation, returning
// the minibatch cursor to resume from.
func (p *Pipeline) recoverFromCheckpoint() (int, error) {
	for _, sw := range p.workers {
		sw.resetTransient()
	}
	if err := p.Restore(p.opts.CheckpointDir); err != nil {
		return 0, err
	}
	if p.opts.Metrics != nil {
		p.opts.Metrics.Counter("pipeline.recoveries").Inc()
	}
	return p.cursor, nil
}

// publishFaultStats folds this call's failure-path activity into the
// report and, when a registry is attached, the shared counters. Transport
// counters are cumulative per transport, so only the delta since the last
// publication is added.
func (p *Pipeline) publishFaultStats(rep *Report, recoveries, ckptWrites int) {
	rep.Faults.Recoveries = recoveries
	rep.Faults.CheckpointWrites = ckptWrites
	if sr, ok := p.tr.(transport.StatsReporter); ok {
		cur := sr.Stats()
		delta := cur.Sub(p.lastStats)
		p.lastStats = cur
		rep.Faults.TransportReconnects = delta.Reconnects
		rep.Faults.TransportSendErrors = delta.SendErrors
		rep.Faults.TransportRecvErrors = delta.RecvErrors
		if p.opts.Metrics != nil {
			p.opts.Metrics.Counter("transport.reconnects").Add(delta.Reconnects)
			p.opts.Metrics.Counter("transport.send_errors").Add(delta.SendErrors)
			p.opts.Metrics.Counter("transport.recv_errors").Add(delta.RecvErrors)
		}
	}
}

// registerFaultCounters pre-registers the failure counters so a metrics
// snapshot shows them (at zero) even before any fault occurs.
func (p *Pipeline) registerFaultCounters() {
	if p.opts.Metrics == nil {
		return
	}
	p.opts.Metrics.Counter("pipeline.recoveries")
	p.opts.Metrics.Counter("pipeline.checkpoint_writes")
	p.opts.Metrics.Counter("transport.reconnects")
	p.opts.Metrics.Counter("transport.send_errors")
	p.opts.Metrics.Counter("transport.recv_errors")
}
