// Package trace exports simulator/runtime timelines in the Chrome
// trace-event format (the JSON array consumed by chrome://tracing and
// https://ui.perfetto.dev), so pipeline schedules can be inspected
// interactively instead of as ASCII art. WriteChrome renders simulated
// schedule.Timelines; WriteRuntime renders the metrics.OpLog a live
// pipeline.Train run captures — both produce the same event vocabulary
// (F<mb>/B<mb>/sync spans, one thread per worker), so a measured
// timeline loads side-by-side with its simulated prediction.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"pipedream/internal/metrics"
	"pipedream/internal/schedule"
)

// event is one complete ("ph":"X") trace event.
type event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome serializes a timeline as Chrome trace events. Each worker
// becomes a thread; forward, backward, and sync ops become complete
// events. timeUnit scales timeline time into seconds (pass 1 if the
// timeline is already in seconds).
func WriteChrome(w io.Writer, t *schedule.Timeline, timeUnit float64) error {
	if t == nil {
		return fmt.Errorf("trace: nil timeline")
	}
	if timeUnit <= 0 {
		return fmt.Errorf("trace: timeUnit must be positive, got %v", timeUnit)
	}
	events := make([]event, 0, len(t.Ops))
	for _, op := range t.Ops {
		name := ""
		switch op.Kind {
		case schedule.Forward:
			name = fmt.Sprintf("F%d", op.Minibatch)
		case schedule.Backward:
			name = fmt.Sprintf("B%d", op.Minibatch)
		case schedule.SyncOp:
			name = "all_reduce"
		}
		events = append(events, event{
			Name: name,
			Cat:  op.Kind.String(),
			Ph:   "X",
			Ts:   op.Start * timeUnit * 1e6,
			Dur:  (op.End - op.Start) * timeUnit * 1e6,
			Pid:  0,
			Tid:  op.Worker,
			Args: map[string]string{
				"stage":     fmt.Sprintf("%d", op.Stage),
				"minibatch": fmt.Sprintf("%d", op.Minibatch),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteRuntime serializes a live run's op log as Chrome trace events:
// each worker becomes a thread, each recorded forward/backward/sync op a
// complete event with its real (wall-clock) start and duration.
// Backward events carry the observed weight-version staleness and, if one
// left, grad_up_us: when the upstream gradient left (input pass before,
// parameter pass after); sync events nest inside the backward that waited.
// The output loads in ui.perfetto.dev like WriteChrome's timelines.
func WriteRuntime(w io.Writer, log *metrics.OpLog) error {
	if log == nil {
		return fmt.Errorf("trace: nil op log")
	}
	ops := log.Events()
	if len(ops) == 0 {
		return fmt.Errorf("trace: empty op log (was the run instrumented?)")
	}
	events := make([]event, 0, len(ops))
	for _, op := range ops {
		name := ""
		switch op.Kind {
		case metrics.OpForward:
			name = fmt.Sprintf("F%d", op.Minibatch)
		case metrics.OpBackward:
			name = fmt.Sprintf("B%d", op.Minibatch)
		case metrics.OpSync:
			name = "grad_sync"
		default:
			name = op.Kind.String()
		}
		args := map[string]string{
			"stage":     fmt.Sprintf("%d", op.Stage),
			"replica":   fmt.Sprintf("%d", op.Replica),
			"minibatch": fmt.Sprintf("%d", op.Minibatch),
		}
		if op.Kind == metrics.OpBackward {
			args["staleness"] = fmt.Sprintf("%d", op.Staleness)
			if op.GradUp != 0 {
				args["grad_up_us"] = fmt.Sprintf("%g", float64(op.GradUp.Nanoseconds())/1e3)
			}
		}
		events = append(events, event{
			Name: name,
			Cat:  op.Kind.String(),
			Ph:   "X",
			Ts:   float64(op.Start.Nanoseconds()) / 1e3,
			Dur:  float64(op.Dur.Nanoseconds()) / 1e3,
			Pid:  0,
			Tid:  op.Worker,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// RuntimeTimeline converts a live run's op log into the schedule.Timeline
// the simulator emits (times in seconds from the log's origin), so the
// check made on simulated timelines — schedule.Validate against the run's
// schedule.EventGraph — is made on what the runtime actually did too.
// Forward, backward and sync ops carry over; other
// spans (serving requests) have no timeline counterpart and are skipped.
func RuntimeTimeline(log *metrics.OpLog) *schedule.Timeline {
	kinds := map[metrics.OpKind]schedule.OpKind{
		metrics.OpForward:  schedule.Forward,
		metrics.OpBackward: schedule.Backward,
		metrics.OpSync:     schedule.SyncOp,
	}
	t := &schedule.Timeline{}
	for _, ev := range log.Events() {
		kind, ok := kinds[ev.Kind]
		if !ok {
			continue
		}
		op := schedule.Op{
			Worker: ev.Worker, Stage: ev.Stage, Minibatch: ev.Minibatch, Kind: kind,
			Start: ev.Start.Seconds(), End: (ev.Start + ev.Dur).Seconds(),
		}
		t.Ops = append(t.Ops, op)
		t.Workers = max(t.Workers, op.Worker+1)
		t.Horizon = max(t.Horizon, op.End)
	}
	return t
}
