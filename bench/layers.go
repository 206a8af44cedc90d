package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/cliconf"
	"pipedream/internal/collective"
	"pipedream/internal/metrics"
	"pipedream/internal/modelzoo"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// runLayerSuite times each layer from outside, through its public
// functions, at the shapes the workloads use. It is the same on every
// workload's traced run, so a layer's own figure sits next to the
// workload numbers it should explain. Kernels run at parallelism 1, the
// degree every workload's stage workers get on a 2-core box.
func runLayerSuite(r *run) error {
	tensor.SetParallelism(1)
	tensorKernels(r)
	if err := transportLayers(r); err != nil {
		return err
	}
	if err := ringLayers(r); err != nil {
		return err
	}
	if err := checkpointLayers(r); err != nil {
		return err
	}
	topo := topology.ClusterB(4)
	vgg := modelzoo.VGG16(topo.Device, 64)
	for i := 0; i < 5; i++ {
		if err := r.rec.call(-1, "partition", "partition.NewPlan(vgg16)", func(int) error {
			_, err := partition.NewPlan(vgg, topo, partition.PlanOptions{})
			return err
		}); err != nil {
			return err
		}
	}
	r.set("partition.plan_vgg16_ms", median(r.rec.durations("partition.NewPlan(vgg16)"))*1e3)
	return nil
}

// timePlanner runs the partitioning optimizer on a measured profile.
func timePlanner(r *run, prof *profile.ModelProfile, topo *topology.Topology) error {
	for i := 0; i < 5; i++ {
		if err := r.rec.call(-1, "partition", "partition.NewPlan(optimize)", func(int) error {
			_, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
			return err
		}); err != nil {
			return err
		}
	}
	r.set("partition.plan_ms", median(r.rec.durations("partition.NewPlan(optimize)"))*1e3)
	return nil
}

// gflops times fn, which performs flop floating-point operations per
// call, and returns the median rate.
func gflops(flop float64, fn func()) float64 {
	fn() // warm the pool and caches
	rates := make([]float64, 30)
	for i := range rates {
		t0 := time.Now()
		fn()
		rates[i] = flop / time.Since(t0).Seconds() / 1e9
	}
	return median(rates)
}

// tensorKernels measures the matmul kernels at train-compute's shapes
// (batch 64, width 256) and the fused inference kernel at serve-http's
// (16 rows into the images task's 1152→4 classifier).
func tensorKernels(r *run) {
	rng := rand.New(rand.NewSource(r.seed))
	const batch, width = 64, 256
	x := tensor.RandUniform(rng, -1, 1, batch, width)
	w := tensor.RandUniform(rng, -1, 1, width, width)
	g := tensor.RandUniform(rng, -1, 1, batch, width)
	y, dw, dx := tensor.New(batch, width), tensor.New(width, width), tensor.New(batch, width)
	flop := 2.0 * batch * width * width
	r.set("tensor.matmul_gflops", gflops(flop, func() { tensor.MatMulInto(y, x, w) }))
	r.set("tensor.matmul_bwd_gflops", gflops(2*flop, func() {
		tensor.MatMulTransAInto(dw, x, g) // weight gradient
		tensor.MatMulTransBInto(dx, g, w) // input gradient
	}))
	const rows, in, out = 16, 8 * 12 * 12, 4
	a := tensor.RandUniform(rng, -1, 1, rows, in)
	b := tensor.RandUniform(rng, -1, 1, in, out)
	bias := tensor.RandUniform(rng, -1, 1, out)
	dst := tensor.New(rows, out)
	r.set("tensor.fused_gflops", gflops(2.0*rows*in*out, func() { tensor.MatMulBiasActInto(dst, a, b, bias, tensor.ActReLU) }))
}

// echo returns every message worker 1 receives to worker 0 until the
// transport closes.
func echo(tr transport.Transport, wg *sync.WaitGroup) {
	defer wg.Done()
	for m := range tr.Inbox(1) {
		if tr.Send(0, m) != nil {
			return
		}
	}
}

// roundTrips sends n messages of the given kind and size from worker 0
// to worker 1 and back, one at a time, and returns each round-trip time
// in seconds. It closes tr.
func roundTrips(tr transport.Transport, kind transport.MsgKind, elems, n int) ([]float64, error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go echo(tr, &wg)
	defer func() {
		tr.Close()
		wg.Wait()
	}()
	payload := tensor.New(elems)
	out := make([]float64, 0, n)
	for i := 0; i < n+10; i++ {
		t0 := time.Now()
		if err := tr.Send(1, transport.Message{Kind: kind, Minibatch: i, Tensor: payload}); err != nil {
			return nil, err
		}
		if _, ok := <-tr.Inbox(0); !ok {
			return nil, fmt.Errorf("transport closed during ping-pong")
		}
		if i >= 10 { // the first trips dial the connection
			out = append(out, time.Since(t0).Seconds())
		}
	}
	return out, nil
}

// transportLayers measures a small Activation's Send→Inbox round trip on
// both transports, and the TCP transport's cost per byte for train-comm's
// 1 MB activations and for train-replicated's ring chunks (a 256 KiB
// bucket split between two ranks). A round trip moves the payload twice.
func transportLayers(r *run) error {
	const smallElems, actElems, chunkElems = 16, 16 * 32 * 512, collective.DefaultBucketBytes / 4 / 2
	rtt, err := roundTrips(transport.NewChannels(2, 4), transport.Activation, smallElems, 2000)
	if err != nil {
		return err
	}
	r.set("transport.chan_rtt_us", median(rtt)*1e6)
	for _, c := range []struct {
		metric string
		kind   transport.MsgKind
		elems  int
		n      int
		scale  float64
	}{
		{"transport.tcp_rtt_us", transport.Activation, smallElems, 1000, 1e6},
		{"transport.tcp_ns_per_byte", transport.Activation, actElems, 40, 1e9 / (2 * 4 * actElems)},
		{"transport.tcp_chunk_ns_per_byte", transport.GradChunk, chunkElems, 200, 1e9 / (2 * 4 * chunkElems)},
	} {
		tr, err := transport.NewTCP(2, 4)
		if err != nil {
			return err
		}
		rtt, err := roundTrips(tr, c.kind, c.elems, c.n)
		if err != nil {
			return err
		}
		r.set(c.metric, median(rtt)*c.scale)
	}
	return nil
}

// ringRounds runs n two-rank ring all-reduce rounds over tr on gradients
// of train-replicated's replicated stage and returns the median round
// time and the exact bytes one rank puts on the wire per round.
func ringRounds(tr transport.Transport, seed int64, n int) (roundSeconds float64, wireBytes int64, gradBytes int, err error) {
	spec := trainSpecs[2]
	factory, _ := spec.build(seed)
	peers := []int{0, 1}
	rings := make([]*collective.RingReducer, 2)
	grads := make([][]*tensor.Tensor, 2)
	for rank := range rings {
		rings[rank] = collective.NewRingReducer(rank, peers, tr, 0)
		grads[rank] = factory().Slice(spec.stages[0].FirstLayer, spec.stages[0].LastLayer+1).Grads()
		for _, g := range grads[rank] {
			g.Fill(float32(rank + 1))
		}
	}
	for _, g := range grads[0] {
		gradBytes += g.Bytes()
	}
	times := make([]float64, 0, n)
	errs := make([]error, 2)
	for round := 0; round < n; round++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for rank := range rings {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ring, inbox := rings[rank], tr.Inbox(rank)
				if errs[rank] = ring.BeginRound(round, 2, grads[rank]); errs[rank] != nil {
					return
				}
				if errs[rank] = ring.Ready(0); errs[rank] != nil {
					return
				}
				for !ring.Idle() && errs[rank] == nil {
					errs[rank] = ring.Deliver(<-inbox)
				}
			}(rank)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return 0, 0, 0, e
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), rings[0].WireBytes() / int64(n), gradBytes, nil
}

func ringLayers(r *run) error {
	const inboxDepth = 64 // room for every chunk of a round: 5 buckets × 2 phases, with slack
	chans := transport.NewChannels(2, inboxDepth)
	sec, wire, bytes, err := ringRounds(chans, r.seed, 30)
	chans.Close()
	if err != nil {
		return err
	}
	r.set("collective.ring_mb_per_s", float64(bytes)/1e6/sec)
	r.set("collective.wire_bytes_per_round", float64(wire))
	tcp, err := transport.NewTCP(2, inboxDepth)
	if err != nil {
		return err
	}
	sec, _, bytes, err = ringRounds(tcp, r.seed, 30)
	tcp.Close()
	if err != nil {
		return err
	}
	r.set("collective.ring_tcp_mb_per_s", float64(bytes)/1e6/sec)
	return nil
}

// checkpointLayers times Pipeline.Checkpoint and checkpoint.LoadModel on
// the train-compute model.
func checkpointLayers(r *run) error {
	spec := trainSpecs[0]
	rig, err := spec.setup(r, -1, false, false)
	if err != nil {
		return err
	}
	defer rig.close()
	for i := 0; i < 5; i++ {
		dir := filepath.Join(r.tmpDir, fmt.Sprintf("ckpt%d", i))
		if err := r.rec.call(-1, "checkpoint", "Pipeline.Checkpoint", func(int) error { return rig.p.Checkpoint(dir) }); err != nil {
			return err
		}
		if err := r.rec.call(-1, "checkpoint", "checkpoint.LoadModel", func(int) error {
			_, _, err := checkpoint.LoadModel(dir, rig.factory)
			return err
		}); err != nil {
			return err
		}
	}
	r.set("checkpoint.write_ms", median(r.rec.durations("Pipeline.Checkpoint"))*1e3)
	r.set("checkpoint.load_ms", median(r.rec.durations("checkpoint.LoadModel"))*1e3)
	return nil
}

// inprocServe is what the in-process serving measurement yields beyond
// the metrics it sets.
type inprocServe struct {
	p50Us       float64
	allocsPerOp float64
	gcPauseMs   float64
	poolHit     float64
}

// measureInprocServe sends serve-http's phase-A requests (one row each,
// one at a time) straight into Server.Infer and Tenant.Infer, with the
// server's op log on, and times SwapModel. The difference between these
// latencies and the HTTP ones is the front door's cost.
func measureInprocServe(r *run) (*inprocServe, error) {
	const requests = 200
	mdl := &cliconf.Model{Task: serveTask, Seed: r.seed, Stages: serveStages}
	task, err := mdl.Build()
	if err != nil {
		return nil, err
	}
	model := task.Factory()
	plan, err := cliconf.BuildPlan(model, serveStages, 1, partition.SyncRing)
	if err != nil {
		return nil, err
	}
	pool := newRowPool(r.seed, task)
	oplog := metrics.NewOpLog(0)
	oplog.SetOrigin(r.rec.origin)
	cfg := serve.Config{Model: model, Plan: plan, InputShape: pool.shape}
	traced := cfg
	traced.Metrics, traced.OpLog = metrics.NewRegistry(), oplog
	srv, err := serve.NewServer(traced)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hits0, misses0, _ := tensor.PoolCounters()
	for i := 0; i < requests; i++ {
		x := pool.tensor(i, 1)
		err := r.rec.call(-1, "serve", "Server.Infer", func(int) error {
			y, err := srv.Infer(x)
			if err == nil && !pool.matches(i, 1, y.Data) {
				r.problem("in-process Server.Infer: request %d differs from the reference forward", i)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	hits1, misses1, _ := tensor.PoolCounters()
	runtime.ReadMemStats(&ms1)
	out := &inprocServe{
		p50Us:       median(r.rec.durations("Server.Infer")) * 1e6,
		allocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / requests,
		gcPauseMs:   float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		poolHit:     ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)),
	}
	r.set("serve.inproc_p50_us", out.p50Us)
	setRequestSelfTime(r, oplog)

	for gen := 1; gen <= 10; gen++ {
		if err := r.rec.call(-1, "serve", "Server.SwapModel", func(int) error { return srv.SwapModel(task.Factory(), gen) }); err != nil {
			return nil, err
		}
	}
	r.set("serve.swap_us", median(r.rec.durations("Server.SwapModel"))*1e6)

	fl, err := fleet.New(fleet.Config{Replicas: serveReplicas, Policy: fleet.LeastInFlight}, fleet.TenantConfig{Name: serveTask, Server: cfg})
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	tenant, err := fl.Tenant(serveTask)
	if err != nil {
		return nil, err
	}
	for i := 0; i < requests; i++ {
		x := pool.tensor(i, 1)
		if err := r.rec.call(-1, "fleet", "Tenant.Infer", func(int) error { _, err := tenant.Infer(x); return err }); err != nil {
			return nil, err
		}
	}
	r.set("fleet.overhead_us", median(r.rec.durations("Tenant.Infer"))*1e6-out.p50Us)
	events, err := runtimeEvents(oplog)
	r.runtimeEvents = append(r.runtimeEvents, events...)
	return out, err
}

// setRequestSelfTime computes, from the server's own op log, each
// request's self time — its span minus the stage-forward spans of the
// batch that carried it, which is batcher wait plus inter-stage hops —
// and the median stage forward time.
func setRequestSelfTime(r *run, oplog *metrics.OpLog) {
	events := oplog.Events()
	var spans []span
	requestOf := make(map[int]int) // batch id → index of its request span
	for _, ev := range events {
		if ev.Kind == metrics.OpRequest {
			requestOf[ev.Minibatch] = len(spans)
			spans = append(spans, span{Layer: "serve", Name: "request", Parent: -1, Start: ev.Start, End: ev.Start + ev.Dur})
		}
	}
	requests := len(spans)
	var fwd []float64
	for _, ev := range events {
		if ev.Kind != metrics.OpForward {
			continue
		}
		fwd = append(fwd, float64(ev.Dur.Nanoseconds())/1e3)
		if parent, ok := requestOf[ev.Minibatch]; ok {
			spans = append(spans, span{Layer: "serve", Name: "forward", Parent: parent, Start: ev.Start, End: ev.Start + ev.Dur})
		}
	}
	self := make([]float64, requests)
	for i, d := range selfTimes(spans)[:requests] {
		self[i] = float64(d.Nanoseconds()) / 1e3
	}
	r.set("serve.request_self_us", median(self))
	r.set("serve.stage_fwd_us_p50", median(fwd))
}
