// Command pipedream-profile measures a per-layer profile of a built-in
// trainable model — exactly the paper's profiling step (§3.1): run some
// minibatches on one worker, timing each layer's forward and backward
// passes and recording activation/weight sizes — and writes the profile
// as JSON for pipedream-optimizer to consume. The model is the one the
// runtime binaries train for the same -task and -seed.
//
// Usage:
//
//	pipedream-profile -task sequence -batches 50 -o seq.json
//	pipedream-optimizer -profile seq.json -cluster a -servers 1
package main

import (
	"flag"
	"fmt"
	"os"

	"pipedream/internal/cliconf"
	"pipedream/internal/tensor"
)

func main() {
	mdl := &cliconf.Model{Task: "spiral", Seed: 42}
	mdl.RegisterTask(flag.CommandLine)
	batches := flag.Int("batches", 20, "minibatches to profile over")
	out := flag.String("o", "", "output JSON path (default stdout)")
	showMetrics := flag.Bool("metrics", false, "report tensor-arena traffic (pool hits/misses) for the profiling run to stderr")
	flag.Parse()

	task, err := mdl.Build()
	if err != nil {
		fatal(err)
	}
	prof := mdl.Profile(task, 1, *batches) // one worker per process
	if *showMetrics {
		hits, misses, puts := tensor.PoolCounters()
		total := hits + misses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(hits) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "tensor arena: %d gets (%.1f%% pooled), %d allocating misses, %d puts\n",
			total, rate, misses, puts)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := prof.WriteJSON(w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "profiled %d layers over %d minibatches → %s (total %.4fs/minibatch, %.1f KB weights)\n",
			prof.NumLayers(), *batches, *out, prof.TotalTime(), float64(prof.TotalWeightBytes())/1024)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-profile:", err)
	os.Exit(1)
}
