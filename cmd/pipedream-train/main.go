// Command pipedream-train trains a real model with PipeDream's 1F1B-RR
// runtime: stages exchange activations and gradients through the
// transport, and weight stashing keeps gradients valid. It demonstrates
// the runtime end to end on synthetic tasks, cut on the model's measured
// profile or by a pipedream-optimizer -plan file.
//
// By default every worker is a goroutine of this process. With -peers (an
// address per worker of the plan) and -id, the process runs only worker
// id and trains with the others over TCP — the paper's process-per-worker
// deployment, the run step of its workflow (Fig. 6). Every process of
// such a run needs identical -task, -seed, -plan and -epochs, and those
// hosting an output stage print the epoch losses:
//
//	pipedream-train -task spiral -stages 3 -epochs 10
//	pipedream-train -task images -plan plan.json
//	pipedream-train -task sequence -mode vertical-sync
//	pipedream-train -task images -replicas 2 -tcp
//	pipedream-train -task spiral -stages 3 -elastic -membership-events '2s:leave:2,5s:join:2'
//
//	pipedream-profile -task images -o prof.json
//	pipedream-optimizer -profile prof.json -cluster c -servers 3 -o plan.json
//	pipedream-train -task images -plan plan.json -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	pipedream-train -task images -plan plan.json -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	pipedream-train -task images -plan plan.json -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
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
	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/schedule"
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
	peerList := flag.String("peers", "", "comma-separated listen addresses of every worker of the -plan, ordered by id: run only worker -id in this process, over TCP")
	id := flag.Int("id", 0, "with -peers: the worker this process runs")
	join := flag.Bool("join", false, "late-join mode: block until a complete checkpoint generation appears in -checkpoint-dir, then restore from it and start contributing (implies -resume)")
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
	var peers []string
	if *peerList != "" {
		if mdl.PlanFile == "" {
			fatal(fmt.Errorf("-peers needs -plan: the processes of a run must not disagree on a measured cut"))
		}
		if elasticFlags.Enabled {
			fatal(fmt.Errorf("-peers runs the static plan of its -plan file; it takes no -elastic"))
		}
		peers = strings.Split(*peerList, ",")
	}
	if elasticFlags.Enabled && (mdl.Replicas != 1 || mdl.PlanFile != "") {
		fatal(fmt.Errorf("-elastic repartitions to one straight stage per live worker; it takes no -plan, and -replicas must be 1"))
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
	newTransport := transportFactory(*useTCP, peers, *id, chaosFlags)
	// run is a static pipeline or an elastic one; both resume at Cursor.
	var run interface {
		Cursor() int
		Train(ds data.Dataset, minibatches int) (*pipeline.Report, error)
	}
	var view *membership.View
	// sink reports whether this process prints the epoch losses: it hosts
	// an output stage, as every in-process run does.
	sink := true
	if elasticFlags.Enabled {
		if opts.FaultConfig.CheckpointDir == "" {
			dir, err := os.MkdirTemp("", "pipedream-elastic-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			opts.FaultConfig.CheckpointDir = dir
		}
		var e *pipeline.Elastic
		e, view = newElastic(mdl, task, model, opts, chaosFlags, elasticFlags, *depth, newTransport)
		defer e.Close()
		run = e
	} else {
		plan, err := mdl.Plan(task)
		if err != nil {
			fatal(err)
		}
		if peers != nil && !plan.Pinned() {
			fatal(fmt.Errorf("-plan %s pins no depth and windows, so each -peers process would derive its windows from its own measured profile: write it with pipedream-optimizer -o", mdl.PlanFile))
		}
		if peers != nil && *depth > 0 && *depth != plan.Depth {
			fatal(fmt.Errorf("-depth %d is not the depth %d of -plan %s, so each -peers process would derive its windows from its own measured profile", *depth, plan.Depth, mdl.PlanFile))
		}
		if *depth > 0 {
			plan = plan.AtDepth(*depth)
		}
		if peers != nil && len(peers) != plan.Workers {
			fatal(fmt.Errorf("the plan uses %d workers, so -peers needs %d addresses, got %d", plan.Workers, plan.Workers, len(peers)))
		}
		if peers != nil && (*id < 0 || *id >= plan.Workers) {
			fatal(fmt.Errorf("-id %d is not a worker of the plan (0 to %d)", *id, plan.Workers-1))
		}
		fmt.Printf("task %s: %d layers across %d stage(s) (%s) on %d worker(s), config %s, depth %d, %s, mode %s\n",
			mdl.Task, len(model.Layers), len(plan.Stages), cliconf.Cuts(plan, model), plan.Workers, plan.ConfigString(), plan.Depth, plan.WindowString(), mode)
		tr, err := newTransport(plan.Workers, cliconf.Buffer(plan, model, syncCfg))
		if err != nil {
			fatal(err)
		}
		defer tr.Close()
		if peers != nil {
			// The pipeline runs the workers the transport hosts: this one.
			stage := schedule.Assign(plan).Workers[*id].Stage
			sink = len(plan.Graph.Succs(stage)) == 0
			fmt.Printf("transport: worker %d (stage %d) listening on %s\n", *id, stage, peers[*id])
		} else if *useTCP {
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
		if (*join || faultFlags.Resume) && faultFlags.Dir == "" {
			fatal(fmt.Errorf("-join and -resume need -checkpoint-dir"))
		}
		if *join {
			// A replacement worker: block until the others' complete generation
			// exists, then resume from it. Peers retrying sends with backoff
			// bridge the gap until this process starts answering.
			fmt.Printf("joining: waiting for a complete checkpoint generation in %s\n", faultFlags.Dir)
			for _, err := checkpoint.Latest(faultFlags.Dir); err != nil; _, err = checkpoint.Latest(faultFlags.Dir) {
				if !errors.Is(err, checkpoint.ErrNoGeneration) {
					fatal(err)
				}
				time.Sleep(200 * time.Millisecond)
			}
		}
		if *join || faultFlags.Resume {
			if err := p.Restore(faultFlags.Dir); err != nil {
				fatal(err)
			}
			fmt.Printf("resumed from checkpoint generation at minibatch %d\n", p.Cursor())
		}
		run = p
	}

	// The epoch loop is cursor-driven so a resumed run finishes its
	// partial epoch before starting the next one, keeping the epoch
	// boundaries of every process of a -peers run aligned.
	mbs := task.Train.NumBatches()
	total := *epochs * mbs
	var faults pipeline.FaultStats
	for run.Cursor() < total {
		ep := run.Cursor()/mbs + 1
		rep, err := run.Train(task.Train, mbs-run.Cursor()%mbs)
		if err != nil {
			fatal(err)
		}
		// A -peers process holds only its own stage, so it evaluates nothing.
		var final *nn.Sequential
		switch r := run.(type) {
		case *pipeline.Pipeline:
			if peers == nil {
				final = r.CollectModel()
			}
			if faultFlags.Dir != "" {
				err = r.Checkpoint(faultFlags.Dir)
			}
		case *pipeline.Elastic:
			final, err = r.CollectModel()
		}
		if err != nil {
			fatal(err)
		}
		acc := ""
		if final != nil {
			acc = fmt.Sprintf(", eval accuracy %.1f%%", evaluate(final, task.Eval)*100)
		}
		if sink {
			fmt.Printf("epoch %2d: mean loss %.6f%s, wall %v\n", ep, rep.MeanLoss(), acc, rep.WallTime.Round(1e6))
		}
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

// transportFactory returns the constructor of a run's transport: this
// process's TCP endpoint of a -peers run, loopback TCP sockets, or
// in-process channels, wrapped in the chaos proxy when any chaos flag is
// set. An elastic run calls it once per plan incarnation.
func transportFactory(tcp bool, peers []string, id int, chaos *cliconf.Chaos) pipeline.TransportFactory {
	return func(workers, buffer int) (transport.Transport, error) {
		var tr transport.Transport
		switch {
		case peers != nil:
			t, err := transport.ListenTCP(peers, []int{id}, buffer)
			if err != nil {
				return nil, err
			}
			tr = t
		case tcp:
			t, err := transport.NewTCP(workers, buffer)
			if err != nil {
				return nil, err
			}
			tr = t
		default:
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
	events, err := elasticFlags.ParseEvents()
	if err != nil {
		fatal(err)
	}
	fc := &opts.FaultConfig
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
