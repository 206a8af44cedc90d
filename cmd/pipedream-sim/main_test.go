package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestPrintsThePriceItRuns: a plan run below its own depth is printed at
// the price of the windows it runs, so the plan line's samples/s and the
// simulated throughput line under it agree. GNMT-16 on one Cluster-A
// server at depth 2 printed 618.4 over a simulated 282.7 while the price
// was the bottleneck's alone. Under -policy gpipe the plan line prints the
// GPipe price: it printed the 1F1B price and windows, 568.1 over a
// simulated 336.4 at depth 4.
func TestPrintsThePriceItRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "pipedream-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, policy := range []string{"1f1b", "gpipe"} {
		for _, depth := range []string{"2", "4"} {
			out, err := exec.Command(bin, "-model", "GNMT-16", "-servers", "1", "-policy", policy, "-depth", depth, "-minibatches", "640").CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			read := func(pattern string) float64 {
				t.Helper()
				m := regexp.MustCompile(pattern).FindSubmatch(out)
				if m == nil {
					t.Fatalf("no match for %q in:\n%s", pattern, out)
				}
				v, err := strconv.ParseFloat(string(m[1]), 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			price := read(`(?m)^plan: .*, ([0-9.e+]+) samples/s, depth ` + depth + `\b`)
			sim := read(`(?m)^throughput: ([0-9.e+]+) samples/s`)
			if r := sim / price; r < 0.98 || r > 1.02 {
				t.Errorf("-policy %s -depth %s: plan priced at %g samples/s, simulated at %g (%.3f of its price), want within ±2%%:\n%s", policy, depth, price, sim, r, out)
			}
		}
	}
}
