package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTime checks span self time — duration minus the part of the
// interval that child spans cover — on a synthetic tree with overlapping
// children, a child that outlives its parent, and a grandchild.
func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(50)},   // overlaps a by 10 ms
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)},  // 20 ms outside root
		{Name: "a1", Parent: 1, Start: ms(15), End: ms(25)},  // grandchild: a's, not root's
		{Name: "leaf", Parent: -1, Start: ms(0), End: ms(7)}, // no children
	}
	want := []time.Duration{ms(100 - 40 - 10), ms(30 - 10), ms(20), ms(30), ms(10), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestQuickSmoke runs every workload for about a second, end to end and
// traced, and checks that the workload and metric names the program
// emits are exactly those BENCHMARK.json declares. It keeps the benchmark
// compiling and running as the layers under it change.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"serve-http": true}
	for _, s := range trainSpecs {
		known[s.name] = true
	}
	if len(spec.Workloads) != len(known) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(known))
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json declares workload %q, which the program does not have", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			r := &run{
				workload: w.Name, seed: 3, seconds: 1, traced: traced, root: root,
				outDir: t.TempDir(), pid: os.Getpid(), values: map[string]float64{}, notes: map[string]any{},
			}
			r.tmpDir = r.outDir
			declared := spec.EndToEnd
			if traced {
				r.rec = newRecorder()
				declared = spec.PerLayer
			}
			res, err := r.measure(spec)
			r.runCleanup()
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: emitted %+v (present=%v), declared unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(r.outDir, w.Name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
