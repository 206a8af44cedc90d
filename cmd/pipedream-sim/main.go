// Command pipedream-sim runs one discrete-event cluster simulation of
// pipeline-parallel training and reports throughput, utilization, memory,
// and communication volumes; -timeline prints the worker Gantt chart.
//
// Usage:
//
//	pipedream-sim -model GNMT-16 -cluster a -servers 4 -policy 1f1b
//	pipedream-sim -model VGG-16 -policy gpipe -depth 4 -timeline
package main

import (
	"flag"
	"fmt"
	"os"

	"pipedream/internal/cluster"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/topology"
	"pipedream/internal/trace"
)

func main() {
	model := flag.String("model", "VGG-16", "model zoo name")
	clusterName := flag.String("cluster", "a", "cluster preset: a, b, or c")
	servers := flag.Int("servers", 4, "number of servers")
	batch := flag.Int("batch", 0, "per-worker minibatch size (0 = paper default)")
	policyName := flag.String("policy", "1f1b", "schedule: 1f1b, gpipe, or mp")
	minibatches := flag.Int("minibatches", 256, "minibatches to simulate")
	depth := flag.Int("depth", 0, "pipeline depth: 1F1B in-flight minibatches or GPipe microbatches per flush (0 = the plan's)")
	timeline := flag.Bool("timeline", false, "print the worker timeline")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the timeline to this path")
	traceOutAlias := flag.String("trace-out", "", "alias of -trace (the flag name the runtime CLIs use)")
	dataParallel := flag.Bool("dp", false, "simulate the data-parallel plan instead of the optimizer's")
	planPath := flag.String("plan", "", "JSON plan file from pipedream-optimizer -o (overrides the optimizer)")
	flag.Parse()

	var topo *topology.Topology
	switch *clusterName {
	case "a":
		topo = topology.ClusterA(*servers)
	case "b":
		topo = topology.ClusterB(*servers)
	case "c":
		topo = topology.ClusterC(*servers)
	default:
		fatal(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	b := *batch
	if b == 0 {
		b = modelzoo.PaperBatchSize(*model)
	}
	prof, err := modelzoo.ByName(*model, topo.Device, b)
	if err != nil {
		fatal(err)
	}

	var plan *partition.Plan
	switch {
	case *planPath != "":
		f, ferr := os.Open(*planPath)
		if ferr != nil {
			fatal(ferr)
		}
		plan, err = partition.ReadJSON(f, prof, topo)
		f.Close()
	case *dataParallel:
		plan, err = partition.DataParallel(prof, topo)
	default:
		plan, err = partition.NewPlan(prof, topo, partition.PlanOptions{})
	}
	if err != nil {
		fatal(err)
	}
	if *depth > 0 {
		plan = plan.AtDepth(*depth)
	}

	var policy schedule.Policy
	switch *policyName {
	case "1f1b":
		policy = schedule.PipeDream1F1B
	case "gpipe":
		policy = schedule.GPipe
	case "mp": // one minibatch in flight: the 1F1B table at depth 1
		plan = plan.AtDepth(1)
	default:
		fatal(fmt.Errorf("unknown policy %q (want 1f1b, gpipe, or mp)", *policyName))
	}

	if *traceOut == "" {
		*traceOut = *traceOutAlias
	}

	res, err := cluster.Simulate(cluster.Config{
		Profile: prof, Topo: topo, Plan: plan, Policy: policy,
		Minibatches:    *minibatches,
		RecordTimeline: *timeline || *traceOut != "",
	})
	if err != nil {
		fatal(err)
	}

	line := plan.String()
	if policy == schedule.GPipe { // no windows, and a flush every Depth microbatches
		line = fmt.Sprintf("%s on %d workers: %s, %.4g samples/s, depth %d", plan.Model, plan.Workers, plan.ConfigString(), plan.GPipeThroughput(), plan.Depth)
	}
	fmt.Printf("plan:       %s\n", line)
	fmt.Printf("policy:     %s\n", policy)
	fmt.Printf("total time: %.3fs for %d minibatches\n", res.TotalTime, *minibatches)
	fmt.Printf("throughput: %.4g samples/s (steady state)\n", res.Throughput)
	dp, err := partition.DataParallel(prof, topo)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("DP baseline: %.4g samples/s (comm overhead %.0f%%)\n", dp.PredictedThroughput, cluster.SyncStall(prof, dp)*100)
	fmt.Printf("speedup over DP: %.2fx\n", res.Throughput/dp.PredictedThroughput)
	fmt.Printf("bytes/sample (p2p + sync): %.0f\n", float64(res.P2PBytes+res.SyncBytes)/float64(*minibatches*prof.MinibatchSize))
	worst := int64(0)
	for _, m := range res.PeakMemory {
		if m > worst {
			worst = m
		}
	}
	fmt.Printf("worst per-worker memory: %.1f MB\n", float64(worst)/(1<<20))
	if *timeline {
		step := res.TotalTime / 160
		fmt.Println("timeline (digits = forward minibatch, letters = backward, # = sync, . = idle):")
		fmt.Print(res.Timeline.Render(step))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		err = trace.WriteChrome(f, res.Timeline, 1)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Chrome trace written to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-sim:", err)
	os.Exit(1)
}
