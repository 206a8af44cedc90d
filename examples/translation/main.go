// Translation: a GNMT-style LSTM seq2seq stand-in trained on a synthetic
// copy task with a straight pipeline over TCP sockets — the configuration
// the paper's optimizer picks for GNMT on Cluster-A (Table 1), executed
// over a real network transport carrying binary-framed tensors.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pipedream"
	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

func main() {
	const (
		vocab  = 24
		seqLen = 10
	)
	factory := func() *pipedream.Sequential {
		rng := rand.New(rand.NewSource(21))
		return nn.NewSequential(
			nn.NewEmbedding(rng, "embed", vocab, 16),
			nn.NewLSTM(rng, "enc_lstm", 16, 32),
			nn.NewLSTM(rng, "dec_lstm", 32, 32),
			nn.NewFlattenTime("flatten_time"),
			nn.NewDense(rng, "softmax", 32, vocab),
		)
	}
	train := data.NewSequenceCopy(23, vocab, seqLen, 16, 50)
	eval := data.NewSequenceCopy(29, vocab, seqLen, 32, 6)

	// Straight 4-stage pipeline (embed | enc | dec | head), like the
	// paper's GNMT configuration.
	prof := pipedream.ProfileModel(factory(), "seq2seq", train, 4)
	plan, err := partition.NewPlan(prof, topology.Flat(4, 1e9, topology.V100), partition.PlanOptions{Stages: []pipedream.StageSpec{
		{FirstLayer: 0, LastLayer: 0, Replicas: 1},
		{FirstLayer: 1, LastLayer: 1, Replicas: 1},
		{FirstLayer: 2, LastLayer: 2, Replicas: 1},
		{FirstLayer: 3, LastLayer: 4, Replicas: 1},
	}})
	if err != nil {
		log.Fatal(err)
	}

	// Real TCP loopback transport between the stage workers, its inboxes
	// sized by the rule the runtime sizes its own transport by.
	stages, err := plan.StageSlices(factory())
	if err != nil {
		log.Fatal(err)
	}
	tr, err := transport.NewTCP(4, pipeline.InboxSize(plan, stages, 0))
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	for w := 0; w < 4; w++ {
		fmt.Printf("stage %d worker listening on %s\n", w, tr.Addr(w))
	}

	p, err := pipedream.NewPipeline(pipedream.PipelineOptions{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         pipedream.SoftmaxCrossEntropy,
		NewOptimizer: func() pipedream.Optimizer { return pipedream.NewAdam(0.003) },
		Transport:    tr,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstraight pipeline %s, depth %d, transport TCP\n\n", plan.ConfigString(), plan.Depth)
	for epoch := 1; epoch <= 6; epoch++ {
		rep, err := p.Train(train, train.NumBatches())
		if err != nil {
			log.Fatal(err)
		}
		model := p.CollectModel()
		correct, total := 0, 0
		for i := 0; i < eval.NumBatches(); i++ {
			b := eval.Batch(i)
			y, _ := model.Forward(b.X, false)
			correct += int(pipedream.Accuracy(y, b.Labels) * float64(len(b.Labels)))
			total += len(b.Labels)
		}
		fmt.Printf("epoch %d: loss %.4f, per-token accuracy %.1f%%\n",
			epoch, rep.MeanLoss(), 100*float64(correct)/float64(total))
	}
}
