// Command pipedream-worker is one worker of a DISTRIBUTED PipeDream
// deployment: launch one process per worker of a plan, all with the same
// -plan file and -peers list (an address per worker), each with its own
// -id, and they train together over real TCP — the paper's
// process-per-worker deployment, run step of its workflow (Fig. 6):
//
//	pipedream-profile -task images -o prof.json
//	pipedream-optimizer -profile prof.json -cluster c -servers 3 -o plan.json
//	pipedream-worker -plan plan.json -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	pipedream-worker -plan plan.json -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	pipedream-worker -plan plan.json -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// The output-stage workers print per-epoch losses. Every process must use
// identical -task, -seed, -plan, -minibatches, and -epochs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/cliconf"
	"pipedream/internal/nn"
	"pipedream/internal/pipeline"
	"pipedream/internal/schedule"
	"pipedream/internal/transport"
)

func main() {
	mdl := &cliconf.Model{Task: "spiral", Seed: 42}
	syncFlags := &cliconf.Sync{}
	faultFlags := &cliconf.Fault{}
	chaosFlags := &cliconf.Chaos{MaxDelay: 10 * time.Millisecond, Seed: 1}
	obsFlags := &cliconf.Obs{}
	fs := flag.CommandLine
	mdl.RegisterTask(fs)
	mdl.RegisterPlan(fs)
	syncFlags.Register(fs)
	faultFlags.Register(fs)
	chaosFlags.Register(fs)
	obsFlags.Register(fs)
	id := flag.Int("id", 0, "this worker's id (= its pipeline stage for straight pipelines)")
	peers := flag.String("peers", "", "comma-separated listen addresses of all workers, ordered by id")
	epochs := flag.Int("epochs", 3, "training epochs")
	minibatches := flag.Int("minibatches", 0, "minibatches per epoch (default: dataset size)")
	join := flag.Bool("join", false, "late-join mode: block until a complete checkpoint generation appears in -checkpoint-dir, then restore from it and start contributing (implies -resume)")
	flag.Parse()

	if mdl.PlanFile == "" {
		fatal(fmt.Errorf("-plan is required: write one with pipedream-profile and pipedream-optimizer -o"))
	}
	syncCfg := syncFlags.Build()
	task, err := mdl.Build()
	if err != nil {
		fatal(err)
	}
	plan, err := mdl.Plan(task)
	if err != nil {
		fatal(err)
	}
	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) != plan.Workers {
		fatal(fmt.Errorf("the plan uses %d workers, so -peers needs %d addresses, got %q", plan.Workers, plan.Workers, *peers))
	}
	mbs := *minibatches
	if mbs == 0 {
		mbs = task.Train.NumBatches()
	}

	tr, err := transport.ListenTCP(addrs, []int{*id}, cliconf.Buffer(plan, task.Factory(), syncCfg))
	if err != nil {
		fatal(err)
	}
	defer tr.Close()

	reg, opLog := obsFlags.Sinks()
	opts := pipeline.Options{
		ModelFactory: task.Factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: task.NewOptimizer,
		Transport:    tr,
		Metrics:      reg,
		OpLog:        opLog,
		SyncConfig:   syncCfg,
		FaultConfig:  faultFlags.Build(),
	}
	if chaosFlags.Enabled() {
		chaos := chaosFlags.Wrap(tr)
		defer chaos.Close()
		opts.Transport = chaos
		fmt.Fprintf(os.Stderr, "worker %d chaos: %s\n", *id, chaosFlags)
	}
	// The pipeline runs the workers the transport hosts: this one.
	w, err := pipeline.New(opts)
	if err != nil {
		fatal(err)
	}
	stage := schedule.Assign(plan).Workers[*id].Stage
	isSink := len(plan.Graph.Succs(stage)) == 0
	fmt.Fprintf(os.Stderr, "worker %d: stage %d of %d, listening on %s\n", *id, stage, len(plan.Stages), tr.Addr(*id))

	if *join {
		// A late-arriving replacement worker: the rest of the pipeline is
		// already training (or checkpointed and waiting), so block until a
		// complete generation exists, adopt its weights and cursor, and
		// fall into the normal resume path. Peers retrying sends with
		// backoff bridge the gap until this process starts answering.
		if faultFlags.Dir == "" {
			fatal(fmt.Errorf("-join needs -checkpoint-dir"))
		}
		fmt.Fprintf(os.Stderr, "worker %d: joining — waiting for a complete checkpoint generation in %s\n",
			*id, faultFlags.Dir)
		for {
			_, err := pipeline.LatestCheckpoint(faultFlags.Dir)
			if err == nil {
				break
			}
			if !errors.Is(err, checkpoint.ErrNoGeneration) {
				fatal(err)
			}
			time.Sleep(200 * time.Millisecond)
		}
		faultFlags.Resume = true
	}
	if faultFlags.Resume {
		if faultFlags.Dir == "" {
			fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
		}
		if err := w.Restore(faultFlags.Dir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "worker %d: resumed from checkpoint at minibatch %d\n", *id, w.Cursor())
	}

	// Cursor-driven epoch loop: a resumed worker first finishes the
	// partial epoch its checkpoint landed in, keeping all processes'
	// epoch boundaries aligned.
	total := *epochs * mbs
	for w.Cursor() < total {
		e := w.Cursor()/mbs + 1
		rep, err := w.Train(task.Train, mbs-w.Cursor()%mbs)
		if err != nil {
			fatal(err)
		}
		if isSink {
			fmt.Printf("epoch %d loss %.6f\n", e, rep.MeanLoss())
		}
		if obsFlags.MetricsEnabled() {
			fmt.Fprintf(os.Stderr, "worker %d epoch %d metrics:\n%s", *id, e, rep.StageSummary())
		}
	}
	if err := obsFlags.WriteOutputs(reg, opLog); err != nil {
		fatal(err)
	}
	if obsFlags.TraceOut != "" {
		fmt.Fprintf(os.Stderr, "worker %d: runtime trace written to %s\n", *id, obsFlags.TraceOut)
	}
	if faultFlags.Dir != "" {
		if err := w.Checkpoint(faultFlags.Dir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "worker %d: checkpoint written to %s\n", *id, faultFlags.Dir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-worker:", err)
	os.Exit(1)
}
