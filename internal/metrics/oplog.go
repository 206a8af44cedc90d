package metrics

import (
	"sync"
	"time"
)

// OpKind classifies one runtime op in the OpLog.
type OpKind int

// Op kinds recorded by the 1F1B runtime.
const (
	// OpForward is one stage forward pass of one minibatch.
	OpForward OpKind = iota
	// OpBackward is one stage backward pass of one minibatch.
	OpBackward
	// OpSync is time spent waiting in a replicated-stage gradient
	// all_reduce.
	OpSync
	// OpRequest is one serving request's full span, from admission into
	// the dynamic batcher to response demultiplexing (internal/serve).
	OpRequest
	// OpQueue is a serving request's wait in the batcher, admission to dispatch.
	OpQueue
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpForward:
		return "forward"
	case OpBackward:
		return "backward"
	case OpSync:
		return "sync"
	case OpRequest:
		return "request"
	case OpQueue:
		return "queue"
	}
	return "unknown"
}

// OpEvent is one completed runtime op with real (wall-clock) timing.
// Start is the offset from the log's origin, so events from every worker
// goroutine share one timeline.
type OpEvent struct {
	// Worker is the global worker index (the trace "thread").
	Worker int
	// Stage is the pipeline stage the worker executes.
	Stage int
	// Replica is the worker's replica index within its stage.
	Replica int
	// Minibatch is the global minibatch index (-1 for ops that are not
	// tied to one minibatch).
	Minibatch int
	// Kind classifies the op.
	Kind OpKind
	// Start is the op's start offset from the log origin.
	Start time.Duration
	// Dur is the op's duration.
	Dur time.Duration
	// Staleness is, for backward ops, the number of local optimizer
	// updates applied between this minibatch's forward and backward
	// passes (0 otherwise).
	Staleness int
	// GradUp is, for backward ops, the offset from Start at which the
	// upstream gradient left (0: none was sent).
	GradUp time.Duration
}

// OpLog is a bounded, append-only log of runtime ops, shared by every
// worker goroutine of a live run. Append is a short critical section (ops
// are minibatch-granular, so contention is negligible); the log never
// grows past its capacity — once full, further events are counted as
// dropped rather than recorded, keeping memory bounded on long runs.
type OpLog struct {
	mu      sync.Mutex
	origin  time.Time
	events  []OpEvent
	limit   int
	dropped int
}

// DefaultOpLogCap bounds an OpLog built with NewOpLog(0): enough for
// ~100k ops (tens of epochs of the example tasks) at 64 B/event.
const DefaultOpLogCap = 1 << 17

// NewOpLog returns an empty log holding at most capacity events
// (DefaultOpLogCap when capacity <= 0).
func NewOpLog(capacity int) *OpLog {
	if capacity <= 0 {
		capacity = DefaultOpLogCap
	}
	return &OpLog{limit: capacity}
}

// SetOrigin pins the log's zero time. The first Record call sets it
// implicitly; Train calls it with the run start so event offsets line up
// with the run's wall clock. Later calls are ignored, so epochs after the
// first extend the same timeline.
func (l *OpLog) SetOrigin(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.origin.IsZero() {
		l.origin = t
	}
}

// Record timestamps and appends one op that started at start and just
// finished. Safe for concurrent use.
func (l *OpLog) Record(ev OpEvent, start time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.origin.IsZero() {
		l.origin = start
	}
	ev.Start = start.Sub(l.origin)
	l.append(ev)
}

// Append adds a pre-timestamped event (Start already an offset). Intended
// for tests and tools that assemble logs from recorded data.
func (l *OpLog) Append(ev OpEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.append(ev)
}

func (l *OpLog) append(ev OpEvent) {
	if len(l.events) >= l.limit {
		l.dropped++
		return
	}
	l.events = append(l.events, ev)
}

// Events returns a copy of the recorded events in append order.
func (l *OpLog) Events() []OpEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]OpEvent(nil), l.events...)
}

// Len returns the number of recorded events.
func (l *OpLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Dropped returns how many events were discarded because the log was
// full.
func (l *OpLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
