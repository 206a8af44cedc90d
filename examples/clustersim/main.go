// Cluster simulation: reproduce one Table 1 row end to end — VGG-16 on
// four 4-GPU servers — comparing data parallelism, GPipe, and PipeDream's
// 1F1B on the discrete-event cluster simulator, with a worker timeline.
package main

import (
	"fmt"
	"log"

	"pipedream"
	"pipedream/internal/cluster"
	"pipedream/internal/schedule"
)

func main() {
	topo := pipedream.ClusterA(4) // 16 V100s: 4 servers × 4 GPUs, 10 Gbps
	prof, err := pipedream.Model("VGG-16", topo.Device, 64)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := pipedream.Plan(prof, topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer plan: %s\n\n", plan)

	dp, err := pipedream.DataParallelPlan(prof, topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %10.0f samples/s  (comm overhead %.0f%%)\n",
		"data parallelism (BSP):", dp.PredictedThroughput, cluster.SyncStall(prof, dp)*100)

	for _, policy := range []pipedream.Policy{schedule.GPipe, schedule.PipeDream1F1B} {
		res, err := pipedream.Simulate(pipedream.SimConfig{
			Profile: prof, Topo: topo, Plan: plan, Policy: policy,
			Minibatches: 320,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10.0f samples/s  (%.2fx over DP)\n",
			policy.String()+":", res.Throughput, res.Throughput/dp.PredictedThroughput)
	}

	// Short run with a recorded timeline to see the pipeline fill.
	res, err := pipedream.Simulate(pipedream.SimConfig{
		Profile: prof, Topo: topo, Plan: plan, Policy: schedule.PipeDream1F1B,
		Minibatches: 24, RecordTimeline: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n1F1B timeline (digits = forward minibatch, letters = backward, # = weight sync):")
	fmt.Print(res.Timeline.Render(res.TotalTime / 150))
}
