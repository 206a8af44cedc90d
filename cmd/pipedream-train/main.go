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
	reg, opLog := obsFlags.Sinks()
	opts := pipeline.Options{
		ModelFactory: task.Factory,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: task.NewOptimizer,
		Mode:         mode,
		Metrics:      reg,
		OpLog:        opLog,
		SyncConfig:   syncCfg,
		FaultConfig:  faultFlags.Build(),
	}
	newTransport := transportFactory(*useTCP, chaosFlags)
	// run is a static pipeline or an elastic one; both resume at Cursor.
	var run interface {
		Cursor() int
		Train(ds data.Dataset, minibatches int) (*pipeline.Report, error)
	}
	var view *membership.View
	if elasticFlags.Enabled {
		var e *pipeline.Elastic
		e, view = newElastic(mdl, task, model, opts, chaosFlags, elasticFlags, *depth, newTransport)
		defer e.Close()
		run = e
	} else {
		plan, err := mdl.Plan(task)
		if err != nil {
			fatal(err)
		}
		if *depth > 0 {
			plan = plan.AtDepth(*depth)
		}
		fmt.Printf("task %s: %d layers across %d stage(s) (%s) on %d worker(s), config %s, depth %d, %s, mode %s\n",
			mdl.Task, len(model.Layers), len(plan.Stages), cliconf.Cuts(plan, model), plan.Workers, plan.ConfigString(), plan.Depth, plan.WindowString(), mode)
		tr, err := newTransport(plan.Workers, cliconf.Buffer(plan, model, syncCfg))
		if err != nil {
			fatal(err)
		}
		defer tr.Close()
		if *useTCP {
			fmt.Println("transport: TCP loopback sockets (binary-framed tensors)")
		}
		if chaosFlags.Enabled() {
			fmt.Printf("chaos: %s\n", chaosFlags)
		}
		opts.Plan, opts.Transport = plan, tr
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
		run = p
	}

	// The epoch loop is cursor-driven so a resumed run finishes its
	// partial epoch before starting the next one.
	mbs := task.Train.NumBatches()
	total := *epochs * mbs
	var faults pipeline.FaultStats
	for run.Cursor() < total {
		ep := run.Cursor()/mbs + 1
		rep, err := run.Train(task.Train, mbs-run.Cursor()%mbs)
		if err != nil {
			fatal(err)
		}
		var final *nn.Sequential
		switch r := run.(type) {
		case *pipeline.Pipeline:
			final = r.CollectModel()
			if faultFlags.Dir != "" {
				err = r.Checkpoint(faultFlags.Dir)
			}
		case *pipeline.Elastic:
			final, err = r.CollectModel()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("epoch %2d: mean loss %.4f, eval accuracy %.1f%%, wall %v\n",
			ep, rep.MeanLoss(), evaluate(final, task.Eval)*100, rep.WallTime.Round(1e6))
		for _, rs := range rep.Rescales {
			fmt.Printf("  %s\n", rs)
		}
		if obsFlags.MetricsEnabled() {
			fmt.Print(rep.StageSummary())
		}
		faults.Recoveries += rep.Faults.Recoveries
		faults.CheckpointWrites += rep.Faults.CheckpointWrites
		faults.TransportReconnects += rep.Faults.TransportReconnects
		faults.TransportSendErrors += rep.Faults.TransportSendErrors
		faults.TransportRecvErrors += rep.Faults.TransportRecvErrors
	}
	if e, ok := run.(*pipeline.Elastic); ok {
		fmt.Printf("elastic: %d rescale(s) over the run, final plan %d worker(s), membership epoch %d\n",
			e.Rescales(), e.Plan().Workers, view.Epoch())
	} else if faultFlags.Dir != "" {
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

// transportFactory returns the constructor of a run's transport: loopback
// TCP sockets or in-process channels, wrapped in the chaos proxy when any
// chaos flag is set. An elastic run calls it once per plan incarnation.
func transportFactory(tcp bool, chaos *cliconf.Chaos) pipeline.TransportFactory {
	return func(workers, buffer int) (transport.Transport, error) {
		var tr transport.Transport
		if tcp {
			t, err := transport.NewTCP(workers, buffer)
			if err != nil {
				return nil, err
			}
			tr = t
		} else {
			tr = transport.NewChannels(workers, buffer)
		}
		if chaos.Enabled() {
			tr = chaos.Wrap(tr)
		}
		return tr, nil
	}
}

// newElastic builds the elastic runtime: the worker set follows a
// membership view — here scripted with -membership-events, standing in
// for a cluster manager or failure detector — and the controller drains,
// repartitions onto the live set, and resumes from checkpoint whenever it
// changes.
func newElastic(mdl *cliconf.Model, task *cliconf.Task, model *nn.Sequential, opts pipeline.Options,
	chaosFlags *cliconf.Chaos, elasticFlags *cliconf.Elastic, depth int, newTransport pipeline.TransportFactory) (*pipeline.Elastic, *membership.View) {
	if mdl.Replicas != 1 || mdl.PlanFile != "" {
		fatal(fmt.Errorf("-elastic repartitions to one straight stage per live worker; it takes no -plan, and -replicas must be 1"))
	}
	events, err := elasticFlags.ParseEvents()
	if err != nil {
		fatal(err)
	}
	fc := &opts.FaultConfig
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
	e, err := pipeline.NewElastic(opts, pipeline.ElasticConfig{
		View:         view,
		Replan:       replan,
		MinWorkers:   elasticFlags.MinWorkers,
		NewTransport: newTransport,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("task %s: %d layers, elastic across %d worker(s) (min %d), mode %s\n",
		mdl.Task, len(model.Layers), mdl.Stages, elasticFlags.MinWorkers, opts.Mode)
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
	return e, view
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
