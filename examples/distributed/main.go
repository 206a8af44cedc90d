// Distributed: the multi-process deployment API demonstrated in one
// program — three one-worker pipelines (here goroutines; one per OS
// process in production, see pipedream-train -peers), each built on its own
// ListenTCP endpoint of a shared address list and connected by real TCP
// sockets,
// training a 2-1 replicated configuration with the message-based gradient
// all_reduce between the stage-0 replicas.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"pipedream"
	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/topology"
)

func main() {
	factory := func() *pipedream.Sequential {
		rng := rand.New(rand.NewSource(31))
		return nn.NewSequential(
			nn.NewDense(rng, "fc1", 2, 24),
			nn.NewTanh("t1"),
			nn.NewDense(rng, "fc2", 24, 24),
			nn.NewTanh("t2"),
			nn.NewDense(rng, "fc3", 24, 3),
		)
	}
	train := data.NewSpiral(37, 3, 16, 40)

	// 2-1 configuration: stage 0 (layers 0-2) replicated twice, stage 1
	// (layers 3-4) on the third worker.
	prof := pipedream.ProfileModel(factory(), "dist-mlp", train, 4)
	plan, err := partition.NewPlan(prof, topology.Flat(3, 1e9, topology.V100), partition.PlanOptions{Stages: []pipedream.StageSpec{
		{FirstLayer: 0, LastLayer: 2, Replicas: 2},
		{FirstLayer: 3, LastLayer: 4, Replicas: 1},
	}})
	if err != nil {
		log.Fatal(err)
	}

	// Reserve three loopback addresses; every endpoint gets the full list.
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	fmt.Printf("config %s (depth %d), workers at %v\n\n", plan.ConfigString(), plan.Depth, addrs)

	// Every endpoint's inboxes are sized by the rule the runtime sizes
	// its own transport by.
	stages, err := plan.StageSlices(factory())
	if err != nil {
		log.Fatal(err)
	}
	buffer := pipeline.InboxSize(plan, stages, 0)
	workers := make([]*pipedream.Pipeline, 3)
	for i := range workers {
		tr, err := pipedream.ListenTCP(addrs, []int{i}, buffer)
		if err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
		w, err := pipedream.NewPipeline(pipedream.PipelineOptions{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         pipedream.SoftmaxCrossEntropy,
			NewOptimizer: func() pipedream.Optimizer { return pipedream.NewSGD(0.1, 0.9, 0) },
			Transport:    tr,
		})
		if err != nil {
			log.Fatal(err)
		}
		workers[i] = w
	}

	for epoch := 1; epoch <= 5; epoch++ {
		var wg sync.WaitGroup
		var loss float64
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *pipedream.Pipeline) {
				defer wg.Done()
				rep, err := w.Train(train, train.NumBatches())
				if err != nil {
					log.Fatalf("worker %d: %v", i, err)
				}
				if i == 2 { // worker 2 hosts the output stage; the others report zeros
					loss = rep.MeanLoss()
				}
			}(i, w)
		}
		wg.Wait()
		fmt.Printf("epoch %d: loss %.4f\n", epoch, loss)
	}

	// The replicated stage's all_reduce kept both replicas identical.
	a := workers[0].StageModel(0, 0).Params()[0]
	b := workers[1].StageModel(0, 1).Params()[0]
	if a.AllClose(b, 1e-5) {
		fmt.Println("\nstage-0 replicas hold identical weights after TCP gradient all_reduce ✓")
	}
}
