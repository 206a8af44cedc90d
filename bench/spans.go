package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Parent is the index of the span that caused it
// (-1 for a root).
type span struct {
	Layer, Name string
	Parent      int
	Start, End  time.Duration // offsets from the recorder's origin
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the tracing-off mode: call runs fn and records nothing, so the
// end-to-end run pays no clock reads or locks for it.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// call times fn as a span of the given layer under parent and returns
// the span's index, which fn's own calls pass as their parent.
func (r *recorder) call(parent int, layer, name string, fn func(id int) error) error {
	if r == nil {
		return fn(-1)
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Layer: layer, Name: name, Parent: parent, Start: time.Since(r.origin)})
	r.mu.Unlock()
	err := fn(id)
	end := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
	return err
}

// durations returns the duration of every finished span with the given
// name, in recording order.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByLayer sums span self times per layer, in seconds.
func (r *recorder) selfByLayer() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for i, d := range selfTimes(r.spans) {
		out[r.spans[i].Layer] += d.Seconds()
	}
	return out
}

// chromeEvent is one Chrome trace-format event (complete "X" spans and
// "M" process-name metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// benchPid is the trace process the benchmark's own spans appear under;
// the runtime's op log (trace.WriteRuntime) keeps pid 0.
const benchPid = 1

// writeTrace writes path as one Chrome/Perfetto trace: the runtime op
// events (already rendered by trace.WriteRuntime, possibly by the
// serving child) followed by the benchmark's spans, one thread per layer.
func (r *recorder) writeTrace(path string, runtimeEvents []json.RawMessage) error {
	events := append([]json.RawMessage(nil), runtimeEvents...)
	add := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		events = append(events, b)
		return err
	}
	if err := add(chromeEvent{Name: "process_name", Ph: "M", Pid: benchPid, Args: map[string]any{"name": "bench spans"}}); err != nil {
		return err
	}
	r.mu.Lock()
	tids := make(map[string]int)
	for i, s := range r.spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids)
			tids[s.Layer] = tid
		}
		if err := add(chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: benchPid, Tid: tid,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.Parent},
		}); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	for layer, tid := range tids {
		if err := add(chromeEvent{Name: "thread_name", Ph: "M", Pid: benchPid, Tid: tid, Args: map[string]any{"name": layer}}); err != nil {
			return err
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runtimeEvents renders an op log through trace.WriteRuntime and returns
// its events for merging into the benchmark's trace file.
func runtimeEvents(log *metrics.OpLog) ([]json.RawMessage, error) {
	if log.Len() == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := trace.WriteRuntime(&buf, log); err != nil {
		return nil, err
	}
	var events []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return nil, fmt.Errorf("decode runtime trace: %w", err)
	}
	return events, nil
}
