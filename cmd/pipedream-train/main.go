// Command pipedream-train trains a real model in-process with PipeDream's
// 1F1B-RR runtime: workers are goroutines, stages exchange activations and
// gradients through the transport, and weight stashing keeps gradients
// valid. It demonstrates the runtime end to end on synthetic tasks, cut
// on the model's measured profile or by a pipedream-optimizer -plan file.
//
// Usage:
//
//	pipedream-train -task spiral -stages 3 -epochs 10
//	pipedream-train -task images -plan plan.json
//	pipedream-train -task sequence -mode vertical-sync
//	pipedream-train -task images -replicas 2 -tcp
//	pipedream-train -task spiral -stages 3 -elastic -membership-events '2s:leave:2,5s:join:2'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pipedream/internal/cliconf"
	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/transport"
)

func main() {
	mdl := &cliconf.Model{Task: "spiral", Seed: 42, Stages: 3, Replicas: 1}
	syncFlags := &cliconf.Sync{}
	faultFlags := &cliconf.Fault{}
	chaosFlags := &cliconf.Chaos{MaxDelay: 10 * time.Millisecond, Seed: 1}
	obsFlags := &cliconf.Obs{}
	elasticFlags := &cliconf.Elastic{MinWorkers: 1, Debounce: 100 * time.Millisecond}
	fs := flag.CommandLine
	mdl.Register(fs)
	syncFlags.Register(fs)
	faultFlags.Register(fs)
	chaosFlags.Register(fs)
	obsFlags.Register(fs)
	elasticFlags.Register(fs)
	modeName := flag.String("mode", "weight-stashing", "staleness mode: weight-stashing, vertical-sync, or no-stashing")
	epochs := flag.Int("epochs", 8, "training epochs")
	depth := flag.Int("depth", 0, "in-flight minibatches per input replica (0 = the plan's)")
	useTCP := flag.Bool("tcp", false, "run the pipeline over TCP sockets instead of channels")
	flag.Parse()

	var mode pipeline.StalenessMode
	switch *modeName {
	case "weight-stashing":
		mode = pipeline.WeightStashing
	case "vertical-sync":
		mode = pipeline.VerticalSync
	case "no-stashing":
		mode = pipeline.NoStashing
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeName))
	}

	syncCfg := syncFlags.Build()
	task, err := mdl.Build()
	if err != nil {
		fatal(err)
	}
	model := task.Factory()
	if elasticFlags.Enabled {
		runElastic(mdl, task, model, mode, syncCfg, faultFlags, chaosFlags, obsFlags, elasticFlags,
			*epochs, *depth, *useTCP)
		return
	}
	plan, err := mdl.Plan(task)
	if err != nil {
		fatal(err)
	}
	if *depth > 0 {
		plan = plan.AtDepth(*depth)
	}
	fmt.Printf("task %s: %d layers across %d stage(s) (%s) on %d worker(s), config %s, depth %d, %s, mode %s\n",
		mdl.Task, len(model.Layers), len(plan.Stages), cliconf.Cuts(plan, model), plan.Workers, plan.ConfigString(), plan.Depth, plan.WindowString(), mode)

	reg, opLog := obsFlags.Sinks()
	opts := pipeline.Options{
		ModelFactory: task.Factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: task.NewOptimizer,
		Mode:         mode,
		Metrics:      reg,
		OpLog:        opLog,
		SyncConfig:   syncCfg,
		FaultConfig:  faultFlags.Build(),
	}
	buffer := cliconf.Buffer(plan, model, syncCfg)
	if *useTCP {
		tr, err := transport.NewTCP(plan.Workers, buffer)
		if err != nil {
			fatal(err)
		}
		defer tr.Close()
		opts.Transport = tr
		fmt.Println("transport: TCP loopback sockets (binary-framed tensors)")
	}
	if chaosFlags.Enabled() {
		inner := opts.Transport
		if inner == nil {
			inner = transport.NewChannels(plan.Workers, buffer)
		}
		chaos := chaosFlags.Wrap(inner)
		defer chaos.Close()
		opts.Transport = chaos
		fmt.Printf("chaos: %s\n", chaosFlags)
	}
	p, err := pipeline.New(opts)
	if err != nil {
		fatal(err)
	}
	defer p.Close()

	if faultFlags.Resume {
		if faultFlags.Dir == "" {
			fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
		}
		if err := p.Restore(faultFlags.Dir); err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from checkpoint generation at minibatch %d\n", p.Cursor())
	}

	// The epoch loop is cursor-driven so a resumed run finishes its
	// partial epoch before starting the next one.
	mbs := task.Train.NumBatches()
	total := *epochs * mbs
	var faults pipeline.FaultStats
	for p.Cursor() < total {
		e := p.Cursor()/mbs + 1
		rep, err := p.Train(task.Train, mbs-p.Cursor()%mbs)
		if err != nil {
			fatal(err)
		}
		acc := evaluate(p.CollectModel(), task.Eval)
		fmt.Printf("epoch %2d: mean loss %.4f, eval accuracy %.1f%%, wall %v\n",
			e, rep.MeanLoss(), acc*100, rep.WallTime.Round(1e6))
		if obsFlags.MetricsEnabled() {
			fmt.Print(rep.StageSummary())
		}
		faults.Recoveries += rep.Faults.Recoveries
		faults.CheckpointWrites += rep.Faults.CheckpointWrites
		faults.TransportReconnects += rep.Faults.TransportReconnects
		faults.TransportSendErrors += rep.Faults.TransportSendErrors
		faults.TransportRecvErrors += rep.Faults.TransportRecvErrors
		if faultFlags.Dir != "" {
			if err := p.Checkpoint(faultFlags.Dir); err != nil {
				fatal(err)
			}
		}
	}
	if faultFlags.Dir != "" {
		fmt.Printf("per-stage checkpoint generations written to %s\n", faultFlags.Dir)
	}
	if faults.Recoveries > 0 || faults.TransportReconnects > 0 || faults.TransportSendErrors > 0 || faults.TransportRecvErrors > 0 {
		fmt.Printf("faults: %d recoveries, %d checkpoint writes, %d transport reconnects, %d send errors, %d receive errors\n",
			faults.Recoveries, faults.CheckpointWrites, faults.TransportReconnects, faults.TransportSendErrors, faults.TransportRecvErrors)
	}
	if err := obsFlags.WriteOutputs(reg, opLog); err != nil {
		fatal(err)
	}
	if obsFlags.MetricsOut != "" {
		fmt.Printf("metrics snapshot written to %s\n", obsFlags.MetricsOut)
	}
	if obsFlags.TraceOut != "" {
		fmt.Printf("runtime trace written to %s (open in ui.perfetto.dev)\n", obsFlags.TraceOut)
	}
}

// runElastic trains on the elastic runtime: the worker set follows a
// membership view — here scripted with -membership-events, standing in
// for a cluster manager or failure detector — and the controller drains,
// repartitions onto the live set, and resumes from checkpoint whenever it
// changes.
func runElastic(mdl *cliconf.Model, task *cliconf.Task, model *nn.Sequential,
	mode pipeline.StalenessMode, syncCfg pipeline.SyncConfig,
	faultFlags *cliconf.Fault, chaosFlags *cliconf.Chaos, obsFlags *cliconf.Obs,
	elasticFlags *cliconf.Elastic, epochs, depth int, useTCP bool) {
	if mdl.Replicas != 1 || mdl.PlanFile != "" {
		fatal(fmt.Errorf("-elastic repartitions to one straight stage per live worker; it takes no -plan, and -replicas must be 1"))
	}
	events, err := elasticFlags.ParseEvents()
	if err != nil {
		fatal(err)
	}
	fc := faultFlags.Build()
	if fc.CheckpointDir == "" {
		dir, err := os.MkdirTemp("", "pipedream-elastic-")
		if err != nil {
			fatal(err)
		}
		fc.CheckpointDir = dir
	}
	if fc.CheckpointEvery <= 0 {
		fc.CheckpointEvery = 10
	}
	if fc.MaxRecoveries < 1 {
		fc.MaxRecoveries = 1
	}

	// Scripted events stand in for heartbeat expiry, so the view keeps no
	// liveness timeout: workers leave exactly when the script says so.
	view := membership.New(membership.Config{Debounce: elasticFlags.Debounce})
	for w := 0; w < mdl.Stages; w++ {
		view.Join(w, "")
	}

	// Every rescale cuts one stage per live worker on the startup profile.
	prof := mdl.Profile(task, mdl.Stages, cliconf.ProfileBatches)
	replan := func(n int) (*partition.Plan, error) {
		plan, err := cliconf.Cut(prof, n, 1)
		if err == nil && depth > 0 {
			plan = plan.AtDepth(depth)
		}
		return plan, err
	}
	newTransport := func(workers, buffer int) (transport.Transport, error) {
		var tr transport.Transport
		if useTCP {
			t, err := transport.NewTCP(workers, buffer)
			if err != nil {
				return nil, err
			}
			tr = t
		} else {
			tr = transport.NewChannels(workers, buffer)
		}
		if chaosFlags.Enabled() {
			tr = chaosFlags.Wrap(tr)
		}
		return tr, nil
	}

	reg, opLog := obsFlags.Sinks()
	opts := pipeline.Options{
		ModelFactory: task.Factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: task.NewOptimizer,
		Mode:         mode,
		Metrics:      reg,
		OpLog:        opLog,
		SyncConfig:   syncCfg,
		FaultConfig:  fc,
	}
	e, err := pipeline.NewElastic(opts, pipeline.ElasticConfig{
		View:         view,
		Replan:       replan,
		MinWorkers:   elasticFlags.MinWorkers,
		NewTransport: newTransport,
	})
	if err != nil {
		fatal(err)
	}
	defer e.Close()

	fmt.Printf("task %s: %d layers, elastic across %d worker(s) (min %d), mode %s\n",
		mdl.Task, len(model.Layers), mdl.Stages, elasticFlags.MinWorkers, mode)
	fmt.Printf("elastic: checkpointing to %s every %d minibatches (the rescale barrier)\n",
		fc.CheckpointDir, fc.CheckpointEvery)
	if chaosFlags.Enabled() {
		fmt.Printf("chaos: %s\n", chaosFlags)
	}
	// A pre-existing checkpoint directory resumes implicitly: the first
	// plan incarnation reassembles the newest complete generation and
	// picks up from its cursor, whatever plan shape wrote it.
	cliconf.PlayEvents(view, events, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})

	mbs := task.Train.NumBatches()
	total := epochs * mbs
	var faults pipeline.FaultStats
	rescales := 0
	for e.Cursor() < total {
		ep := e.Cursor()/mbs + 1
		rep, err := e.Train(task.Train, mbs-e.Cursor()%mbs)
		if err != nil {
			fatal(err)
		}
		final, err := e.CollectModel()
		if err != nil {
			fatal(err)
		}
		acc := evaluate(final, task.Eval)
		fmt.Printf("epoch %2d: mean loss %.4f, eval accuracy %.1f%%, wall %v\n",
			ep, rep.MeanLoss(), acc*100, rep.WallTime.Round(1e6))
		for _, rs := range rep.Rescales {
			fmt.Printf("  %s\n", rs)
		}
		if obsFlags.MetricsEnabled() {
			fmt.Print(rep.StageSummary())
		}
		rescales += len(rep.Rescales)
		faults.Recoveries += rep.Faults.Recoveries
		faults.CheckpointWrites += rep.Faults.CheckpointWrites
		faults.TransportReconnects += rep.Faults.TransportReconnects
		faults.TransportSendErrors += rep.Faults.TransportSendErrors
		faults.TransportRecvErrors += rep.Faults.TransportRecvErrors
	}
	fmt.Printf("elastic: %d rescale(s) over the run, final plan %d worker(s), membership epoch %d\n",
		rescales, e.Plan().Workers, view.Epoch())
	if faults.Recoveries > 0 || faults.TransportReconnects > 0 || faults.TransportSendErrors > 0 || faults.TransportRecvErrors > 0 {
		fmt.Printf("faults: %d recoveries, %d checkpoint writes, %d transport reconnects, %d send errors, %d receive errors\n",
			faults.Recoveries, faults.CheckpointWrites, faults.TransportReconnects, faults.TransportSendErrors, faults.TransportRecvErrors)
	}
	if err := obsFlags.WriteOutputs(reg, opLog); err != nil {
		fatal(err)
	}
}

func evaluate(model *nn.Sequential, eval data.Dataset) float64 {
	correct, total := 0, 0
	for i := 0; i < eval.NumBatches(); i++ {
		b := eval.Batch(i)
		y, _ := model.Forward(b.X, false)
		correct += int(nn.Accuracy(y, b.Labels)*float64(len(b.Labels)) + 0.5)
		total += len(b.Labels)
	}
	return float64(correct) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-train:", err)
	os.Exit(1)
}
