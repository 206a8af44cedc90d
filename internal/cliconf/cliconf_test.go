package cliconf

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestElasticParseEventsSortsAndValidates(t *testing.T) {
	c := &Elastic{Events: "5s:join:2, 120ms:leave:0 ,2s:leave:1"}
	events, err := c.ParseEvents()
	if err != nil {
		t.Fatal(err)
	}
	want := []MembershipEvent{
		{At: 120 * time.Millisecond, Join: false, ID: 0},
		{At: 2 * time.Second, Join: false, ID: 1},
		{At: 5 * time.Second, Join: true, ID: 2},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestElasticParseEventsEmpty(t *testing.T) {
	events, err := (&Elastic{}).ParseEvents()
	if err != nil || events != nil {
		t.Fatalf("empty timeline: got %v, %v", events, err)
	}
}

func TestElasticParseEventsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"2s:leave",        // missing id
		"2s:evict:1",      // unknown op
		"soon:leave:1",    // bad duration
		"2s:join:-1",      // negative id
		"2s:join:charlie", // non-numeric id
	} {
		if _, err := (&Elastic{Events: bad}).ParseEvents(); err == nil {
			t.Errorf("timeline %q: want error, got none", bad)
		}
	}
}

// TestObsCPUProfile: -cpuprofile starts a profile at Sinks and
// WriteOutputs finishes it into a file pprof can read (a gzip stream),
// and a path that cannot be created costs a warning, not the run.
func TestObsCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	obs := &Obs{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	obs.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	reg, opLog := obs.Sinks()
	if err := obs.WriteOutputs(reg, opLog); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("profile %s: %d bytes, err %v; want a gzip stream", path, len(raw), err)
	}

	bad := &Obs{CPUProfile: filepath.Join(path, "under-a-file")}
	bad.Sinks()
	if err := bad.WriteOutputs(nil, nil); err != nil {
		t.Fatalf("unwritable -cpuprofile: %v, want only a warning", err)
	}
}
