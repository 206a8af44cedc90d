// Command pipedream-optimizer runs PipeDream's partitioning algorithm for
// a model on a cluster and prints the resulting stage assignment,
// in-flight depth, and predicted throughput against the data-parallel
// baseline.
//
// Usage:
//
//	pipedream-optimizer -model VGG-16 -cluster a -servers 4
//	pipedream-optimizer -profile prof.json -cluster b -servers 2
package main

import (
	"flag"
	"fmt"
	"os"

	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

func main() {
	model := flag.String("model", "VGG-16", "model zoo name (see -models)")
	profPath := flag.String("profile", "", "JSON profile file (overrides -model)")
	cluster := flag.String("cluster", "a", "cluster preset: a, b, or c (paper Table 2)")
	servers := flag.Int("servers", 4, "number of servers")
	batch := flag.Int("batch", 0, "per-worker minibatch size (0 = paper default)")
	models := flag.Bool("models", false, "list model zoo entries and exit")
	planOut := flag.String("o", "", "write the chosen plan as JSON to this path")
	flag.Parse()

	if *models {
		for _, m := range modelzoo.Names() {
			fmt.Println(m)
		}
		return
	}

	var topo *topology.Topology
	switch *cluster {
	case "a":
		topo = topology.ClusterA(*servers)
	case "b":
		topo = topology.ClusterB(*servers)
	case "c":
		topo = topology.ClusterC(*servers)
	default:
		fatal(fmt.Errorf("unknown cluster %q (want a, b, or c)", *cluster))
	}

	var prof *profile.ModelProfile
	if *profPath != "" {
		f, err := os.Open(*profPath)
		if err != nil {
			fatal(err)
		}
		prof, err = profile.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		b := *batch
		if b == 0 {
			b = modelzoo.PaperBatchSize(*model)
		}
		var err error
		prof, err = modelzoo.ByName(*model, topo.Device, b)
		if err != nil {
			fatal(err)
		}
	}

	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
	if err != nil {
		fatal(err)
	}
	dp, err := partition.DataParallel(prof, topo)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model:    %s (%d layers, %.1f MB weights, %.3fs compute/minibatch)\n",
		prof.Model, prof.NumLayers(), float64(prof.TotalWeightBytes())/(1<<20), prof.TotalTime())
	fmt.Printf("topology: %s\n", topo)
	fmt.Printf("plan:     %s\n", plan)
	for i, st := range plan.Stages {
		fmt.Printf("  stage %d: layers %2d-%2d (%s .. %s), %d replica(s), %.4fs/minibatch\n",
			i, st.FirstLayer, st.LastLayer,
			prof.Layers[st.FirstLayer].Name, prof.Layers[st.LastLayer].Name,
			st.Replicas, plan.StageTimes[i])
	}
	fmt.Printf("data parallelism: %.4g samples/s\n", dp.PredictedThroughput)
	fmt.Printf("predicted speedup over DP: %.2fx\n", plan.PredictedThroughput/dp.PredictedThroughput)
	if *planOut != "" {
		f, err := os.Create(*planOut)
		if err != nil {
			fatal(err)
		}
		err = plan.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-optimizer:", err)
	os.Exit(1)
}
