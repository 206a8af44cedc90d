package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/schedule"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleOpLog is a deterministic 2-worker run fragment: F0 F1 B0 on the
// input stage (with a nested grad_sync) and F0 B0 downstream.
func sampleOpLog() *metrics.OpLog {
	l := metrics.NewOpLog(16)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	l.Append(metrics.OpEvent{Worker: 0, Stage: 0, Minibatch: 0, Kind: metrics.OpForward, Start: ms(0), Dur: ms(2)})
	l.Append(metrics.OpEvent{Worker: 0, Stage: 0, Minibatch: 1, Kind: metrics.OpForward, Start: ms(2), Dur: ms(2)})
	l.Append(metrics.OpEvent{Worker: 1, Stage: 1, Minibatch: 0, Kind: metrics.OpForward, Start: ms(2), Dur: ms(1)})
	l.Append(metrics.OpEvent{Worker: 1, Stage: 1, Minibatch: 0, Kind: metrics.OpBackward, Start: ms(3), Dur: ms(2), Staleness: 0})
	l.Append(metrics.OpEvent{Worker: 0, Stage: 0, Minibatch: 0, Kind: metrics.OpBackward, Start: ms(5), Dur: ms(4), Staleness: 1})
	l.Append(metrics.OpEvent{Worker: 0, Stage: 0, Minibatch: 0, Kind: metrics.OpSync, Start: ms(6), Dur: ms(1)})
	return l
}

func TestWriteRuntimeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRuntime(&buf, sampleOpLog()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runtime_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from golden file %s:\ngot:  %s\nwant: %s", golden, buf.Bytes(), want)
	}
}

// TestWriteRuntimeIsValidChromeTrace checks the structural contract
// Perfetto/chrome://tracing require: a JSON array of complete events
// with name/ph/ts/dur/pid/tid.
func TestWriteRuntimeIsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRuntime(&buf, sampleOpLog()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	for i, ev := range events {
		for _, key := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("event %d has phase %v, want complete event X", i, ev["ph"])
		}
	}
	// Timestamps are microseconds: the first forward spans [0, 2000).
	if events[0]["name"] != "F0" || events[0]["dur"].(float64) != 2000 {
		t.Fatalf("first event %v", events[0])
	}
	// Backward events carry staleness; sync events are named grad_sync.
	b0 := events[4]
	if b0["name"] != "B0" || b0["args"].(map[string]any)["staleness"] != "1" {
		t.Fatalf("backward event %v", b0)
	}
	if events[5]["name"] != "grad_sync" || events[5]["cat"] != "sync" {
		t.Fatalf("sync event %v", events[5])
	}
}

// A backward that sent an upstream gradient says when, from its start, as
// grad_up_us; one that sent none (the input stage's) has no such arg.
func TestWriteRuntimeMarksUpstreamGradient(t *testing.T) {
	l := metrics.NewOpLog(4)
	l.Append(metrics.OpEvent{Worker: 1, Stage: 1, Minibatch: 0, Kind: metrics.OpBackward, Dur: 2 * time.Millisecond, GradUp: 1250 * time.Microsecond})
	l.Append(metrics.OpEvent{Worker: 0, Stage: 0, Minibatch: 0, Kind: metrics.OpBackward, Start: time.Millisecond, Dur: 2 * time.Millisecond})
	var buf bytes.Buffer
	if err := WriteRuntime(&buf, l); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Args map[string]string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if got := events[0].Args["grad_up_us"]; got != "1250" {
		t.Errorf("stage 1 backward: grad_up_us %q, want \"1250\"", got)
	}
	if got, ok := events[1].Args["grad_up_us"]; ok {
		t.Errorf("stage 0 backward: grad_up_us %q, want none", got)
	}
}

func TestWriteRuntimeRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRuntime(&buf, nil); err == nil {
		t.Fatal("nil op log must fail")
	}
	if err := WriteRuntime(&buf, metrics.NewOpLog(4)); err == nil {
		t.Fatal("empty op log must fail")
	}
}

func TestRuntimeTimelineCarriesOpsInSeconds(t *testing.T) {
	tl := RuntimeTimeline(sampleOpLog())
	if tl.Workers != 2 || len(tl.Ops) != 6 {
		t.Fatalf("timeline has %d workers and %d ops, want 2 and 6", tl.Workers, len(tl.Ops))
	}
	if tl.Horizon != 0.009 {
		t.Fatalf("horizon = %v s, want 0.009 (the backward that ends last)", tl.Horizon)
	}
	got := tl.WorkerOps(0)
	want := []schedule.Op{
		{Worker: 0, Minibatch: 0, Kind: schedule.Forward, Start: 0, End: 0.002},
		{Worker: 0, Minibatch: 1, Kind: schedule.Forward, Start: 0.002, End: 0.004},
		{Worker: 0, Minibatch: 0, Kind: schedule.Backward, Start: 0.005, End: 0.009},
		{Worker: 0, Minibatch: 0, Kind: schedule.SyncOp, Start: 0.006, End: 0.007},
	}
	if len(got) != len(want) {
		t.Fatalf("worker 0 has %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("worker 0 op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestServingSpansRenderedNotScheduled: a serving request's queue and
// request spans are drawn beside the forward they waited for, under their
// own names, and have no counterpart on a schedule timeline.
func TestServingSpansRenderedNotScheduled(t *testing.T) {
	l := metrics.NewOpLog(4)
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	l.Append(metrics.OpEvent{Worker: 1, Stage: 1, Minibatch: 7, Kind: metrics.OpQueue, Start: us(0), Dur: us(40)})
	l.Append(metrics.OpEvent{Worker: 0, Stage: 0, Minibatch: 7, Kind: metrics.OpForward, Start: us(45), Dur: us(10)})
	l.Append(metrics.OpEvent{Worker: 1, Stage: 1, Minibatch: 7, Kind: metrics.OpRequest, Start: us(0), Dur: us(60)})
	var buf bytes.Buffer
	if err := WriteRuntime(&buf, l); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"queue", "F7", "request"} {
		if events[i]["name"] != want {
			t.Errorf("event %d is named %v, want %q", i, events[i]["name"], want)
		}
	}
	if events[0]["cat"] != "queue" || events[0]["dur"].(float64) != 40 {
		t.Errorf("queue event %v", events[0])
	}
	if tl := RuntimeTimeline(l); len(tl.Ops) != 1 || tl.Ops[0].Kind != schedule.Forward {
		t.Errorf("timeline ops = %+v, want the forward alone", tl.Ops)
	}
}
