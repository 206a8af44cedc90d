package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPeersArgumentErrors: a -peers run refuses, before it listens on
// anything, the arguments its processes could not agree on or could not
// run — no -plan (each process would measure its own cut), a plan file
// without depth and windows or a -depth other than the file's (each would
// derive its own windows), -elastic, a peer list that does not name every
// worker of the plan, and an -id outside the plan — each with a non-zero
// exit and a message naming it.
func TestPeersArgumentErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pipedream-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// Spiral's five layers on two straight stages: two workers.
	plan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"model": "spiral", "stages": [
		{"FirstLayer": 0, "LastLayer": 2, "Replicas": 1},
		{"FirstLayer": 3, "LastLayer": 4, "Replicas": 1}], "depth": 2, "windows": [2, 1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	unpinned := filepath.Join(dir, "unpinned.json")
	if err := os.WriteFile(unpinned, []byte(`{"model": "spiral", "stages": [
		{"FirstLayer": 0, "LastLayer": 2, "Replicas": 1},
		{"FirstLayer": 3, "LastLayer": 4, "Replicas": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const two = "127.0.0.1:1,127.0.0.1:2"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-peers", two}, "-peers needs -plan"},
		{[]string{"-plan", unpinned, "-peers", two}, "-plan " + unpinned + " pins no depth and windows"},
		{[]string{"-plan", plan, "-peers", two, "-depth", "3"}, "-depth 3 is not the depth 2 of -plan " + plan},
		{[]string{"-plan", plan, "-peers", two, "-elastic"}, "it takes no -elastic"},
		{[]string{"-plan", plan, "-peers", two + ",127.0.0.1:3"}, "the plan uses 2 workers, so -peers needs 2 addresses, got 3"},
		{[]string{"-plan", plan, "-peers", "127.0.0.1:1"}, "the plan uses 2 workers, so -peers needs 2 addresses, got 1"},
		{[]string{"-plan", plan, "-peers", two, "-id", "2"}, "-id 2 is not a worker of the plan (0 to 1)"},
		{[]string{"-plan", plan, "-peers", two, "-id", "-1"}, "-id -1 is not a worker of the plan (0 to 1)"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited || !strings.Contains(string(out), tc.want) {
			t.Errorf("pipedream-train %s: err = %v, want a non-zero exit saying %q; output:\n%s",
				strings.Join(tc.args, " "), err, tc.want, out)
		}
	}
}
