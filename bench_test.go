// Top-level benchmark harness: one benchmark per table and figure of the
// paper's evaluation (each invocation regenerates the artifact via the
// experiments registry and reports its wall time), plus microbenchmarks of
// the substrates the reproduction is built on — the numerical kernels, the
// partitioning optimizer, the cluster simulator, and the real 1F1B-RR
// training runtime.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package pipedream

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"pipedream/internal/cluster"
	"pipedream/internal/collective"
	"pipedream/internal/data"
	"pipedream/internal/experiments"
	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/schedule"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Fprint(io.Discard)
		}
	}
}

// ---- One benchmark per paper table/figure (see DESIGN.md §4). ----

func BenchmarkFig1DPCommOverhead(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2ModelParallel(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3GPipe(b *testing.B)              { benchExperiment(b, "fig3") }
func BenchmarkFig4PipeDream1F1B(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5CommOverlap(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig8RoundRobin(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkStaticSchedule(b *testing.B)         { benchExperiment(b, "static") }
func BenchmarkTable1Speedups(b *testing.B)         { benchExperiment(b, "tbl1") }
func BenchmarkTable3CloudSlowdown(b *testing.B)    { benchExperiment(b, "tbl3") }
func BenchmarkFig10AccuracyVsTime(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11AccuracyVsEpoch(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12MixedPrecision(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13LARS(b *testing.B)              { benchExperiment(b, "fig13") }
func BenchmarkFig14aModelParallel(b *testing.B)    { benchExperiment(b, "fig14a") }
func BenchmarkFig14bHybrid(b *testing.B)           { benchExperiment(b, "fig14b") }
func BenchmarkSec54GPipe(b *testing.B)             { benchExperiment(b, "sec54") }
func BenchmarkFig15PredictedVsReal(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16Memory(b *testing.B)            { benchExperiment(b, "fig16") }
func BenchmarkFig17CommBytes(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18PipelineDepth(b *testing.B)     { benchExperiment(b, "fig18") }
func BenchmarkOptimizerRuntime(b *testing.B)       { benchExperiment(b, "opt") }
func BenchmarkASPConvergence(b *testing.B)         { benchExperiment(b, "asp") }
func BenchmarkAblationStashing(b *testing.B)       { benchExperiment(b, "abl-stash") }
func BenchmarkAblationVerticalSync(b *testing.B)   { benchExperiment(b, "abl-vsync") }
func BenchmarkAblationReplication(b *testing.B)    { benchExperiment(b, "abl-repl") }
func BenchmarkAblationHierarchy(b *testing.B)      { benchExperiment(b, "abl-topo") }
func BenchmarkAblationGPipeStats(b *testing.B)     { benchExperiment(b, "abl-gpipe-stats") }
func BenchmarkAblationStraggler(b *testing.B)      { benchExperiment(b, "abl-straggler") }
func BenchmarkExtTransformer(b *testing.B)         { benchExperiment(b, "ext-transformer") }
func BenchmarkClaimsChecklist(b *testing.B)        { benchExperiment(b, "claims") }
func BenchmarkFig15RuntimeValidation(b *testing.B) { benchExperiment(b, "fig15rt") }
func BenchmarkAblationRecompute(b *testing.B)      { benchExperiment(b, "abl-recompute") }
func BenchmarkAblationMemory(b *testing.B)         { benchExperiment(b, "abl-memory") }

// ---- Substrate microbenchmarks. ----

func BenchmarkTensorMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkTensorMatMulParallel measures the blocked matmul kernel at
// parallelism 1 vs all cores; the ratio is the kernel-level speedup the
// shared worker pool delivers on this machine.
func BenchmarkTensorMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	out := tensor.New(256, 256)
	for _, p := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) { // p1 once on one core
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			defer tensor.SetParallelism(tensor.SetParallelism(p))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkConvForwardParallel measures a full Conv2D training forward
// pass (the CNN hot path) at parallelism 1 vs all cores.
func BenchmarkConvForwardParallel(b *testing.B) {
	g := tensor.ConvGeom{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	for _, p := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) { // p1 once on one core
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			defer tensor.SetParallelism(tensor.SetParallelism(p))
			rng := rand.New(rand.NewSource(2))
			layer := nn.NewConv2D(rng, "conv", g, 16)
			x := tensor.Randn(rng, 1, 8, 8, 32, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, true)
			}
		})
	}
}

func BenchmarkTensorIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := tensor.Randn(rng, 1, 8, 3, 32, 32)
	g := tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := tensor.New(8*g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2ColInto(cols, in, g)
	}
}

// BenchmarkConvInferImages measures what serve-http's two stage workers
// compute per batch of the images task — conv1, ReLU, conv2 | ReLU,
// flatten, dense — each stage the training forward with train=false and its
// context discarded, releasing what a worker releases, at kernel
// parallelism 1, for a 1-row and a 16-row batch.
func BenchmarkConvInferImages(b *testing.B) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	rng := rand.New(rand.NewSource(3))
	g1 := tensor.ConvGeom{InC: 1, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g2 := tensor.ConvGeom{InC: 8, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	model := nn.NewSequential(nn.NewConv2D(rng, "conv1", g1, 8), nn.NewReLU("r1"), nn.NewConv2D(rng, "conv2", g2, 8),
		nn.NewReLU("r2"), nn.NewFlatten("flat"), nn.NewDense(rng, "fc", 8*12*12, 4))
	stage0, stage1 := model.Slice(0, 3), model.Slice(3, 6)
	for _, rows := range []int{1, 16} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			x := tensor.Randn(rng, 1, rows, 1, 12, 12)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y0, ctx0 := stage0.Forward(x, false)
				stage0.Discard(ctx0)
				y1, ctx1 := stage1.Forward(y0, false)
				stage1.Discard(ctx1)
				tensor.Put(y1)
				tensor.Put(y0)
			}
		})
	}
}

func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layer := nn.NewDense(rng, "fc", 256, 256)
	x := tensor.Randn(rng, 1, 32, 256)
	grad := tensor.Randn(rng, 1, 32, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, ctx := layer.Forward(x, true)
		_ = y
		layer.Backward(ctx, grad)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layer := nn.NewLSTM(rng, "lstm", 64, 64)
	x := tensor.Randn(rng, 1, 8, 16, 64)
	grad := tensor.Randn(rng, 1, 8, 16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ctx := layer.Forward(x, true)
		layer.Backward(ctx, grad)
	}
}

func BenchmarkPartitionOptimizerVGG16(b *testing.B) {
	topo := topology.ClusterB(4)
	prof := modelzoo.VGG16(topo.Device, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.NewPlan(prof, topo, partition.PlanOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterSimulator(b *testing.B) {
	topo := topology.ClusterA(4)
	prof := modelzoo.GNMT16(topo.Device, 64)
	plan, err := partition.NewPlan(prof, topo, partition.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Simulate(cluster.Config{
			Profile: prof, Topo: topo, Plan: plan,
			Policy: schedule.PipeDream1F1B, Minibatches: 128,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRuntimeEpoch(b *testing.B) {
	factory := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(3))
		return nn.NewSequential(
			nn.NewDense(rng, "fc1", 8, 32),
			nn.NewTanh("t1"),
			nn.NewDense(rng, "fc2", 32, 32),
			nn.NewTanh("t2"),
			nn.NewDense(rng, "fc3", 32, 4),
		)
	}
	train := data.NewBlobs(5, 4, 8, 16, 32)
	plan := mustStraightPlan(b, 5, 3)
	p, err := pipeline.New(pipeline.Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Train(train, train.NumBatches()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServe drives an 8-stage serving pipeline closed-loop from 64
// concurrent clients, one row per request. BenchmarkServeBatch1 pins
// MaxBatch to 1 (every request travels alone — the no-batching
// baseline); BenchmarkServeDynamic lets the batcher coalesce up to 16
// rows. The ratio of the two is the dynamic-batching speedup at
// saturation: the model is compute-trivial, so per-batch pipeline
// overhead (message hops, worker scheduling, demux bookkeeping)
// dominates — exactly the regime batching exists for. Kernel
// parallelism is pinned to 1 so tiny matmuls don't pay fan-out costs.
// Each run also reports the median end-to-end request latency as p50_us.
func benchServe(b *testing.B, maxBatch int) {
	rng := rand.New(rand.NewSource(9))
	layers := make([]nn.Layer, 8)
	for i := range layers {
		layers[i] = nn.NewDense(rng, fmt.Sprintf("fc%d", i), 8, 8)
	}
	model := nn.NewSequential(layers...)
	srv, err := serve.NewServer(serve.Config{
		Model:             model,
		Plan:              mustStraightPlan(b, 8, 8),
		MaxBatch:          maxBatch,
		QueueCap:          4096,
		MaxInFlight:       16,
		KernelParallelism: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	inputs := make([]*tensor.Tensor, 64)
	for i := range inputs {
		inputs[i] = tensor.RandUniform(rng, -1, 1, 1, 8)
	}
	const clients = 128
	lats := make([][]float64, clients)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += clients {
				t0 := time.Now()
				if _, err := srv.Infer(inputs[i%len(inputs)]); err != nil {
					b.Error(err)
					return
				}
				lats[c] = append(lats[c], float64(time.Since(t0).Microseconds()))
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Float64s(all)
		b.ReportMetric(all[len(all)/2], "p50_us")
	}
}

func BenchmarkServeBatch1(b *testing.B)  { benchServe(b, 1) }
func BenchmarkServeDynamic(b *testing.B) { benchServe(b, 16) }

// deviceLayer is an identity layer that sleeps: a stand-in for a
// device-bound stage (an accelerator kernel the CPU only launches), so
// fleet benchmarks measure replication of latency-bound capacity rather
// than CPU parallelism — on any core count, N replicas can hold N
// device calls open at once.
type deviceLayer struct{ delay time.Duration }

func (l *deviceLayer) Name() string { return "device" }
func (l *deviceLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	time.Sleep(l.delay)
	return x, nil
}
func (l *deviceLayer) Backward(ctx nn.Context, g *tensor.Tensor) *tensor.Tensor { return g }
func (l *deviceLayer) Params() []*tensor.Tensor                                 { return nil }
func (l *deviceLayer) Grads() []*tensor.Tensor                                  { return nil }

// benchFleet drives one tenant of a replicated serving fleet
// closed-loop. The model's first layer is a 1ms deviceLayer, so a
// single replica is capped near 1000 req/s no matter the host — the
// replication speedup (BenchmarkFleetReplicas1 ns/op over
// BenchmarkFleetReplicas2's) is the fleet's data-parallel scaling on
// device-bound serving. Each run also reports the p99 request latency.
func benchFleet(b *testing.B, replicas int) {
	rng := rand.New(rand.NewSource(9))
	model := nn.NewSequential(
		&deviceLayer{delay: time.Millisecond},
		nn.NewDense(rng, "fc", 8, 8),
	)
	fl, err := fleet.New(fleet.Config{Replicas: replicas, Policy: fleet.LeastInFlight},
		fleet.TenantConfig{Name: "bench", Server: serve.Config{
			Model:             model,
			MaxBatch:          1,
			QueueCap:          4096,
			MaxInFlight:       4,
			KernelParallelism: 1,
		}})
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()
	ten, err := fl.Tenant("bench")
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 16)
	for i := range inputs {
		inputs[i] = tensor.RandUniform(rng, -1, 1, 1, 8)
	}
	const clients = 32
	lats := make([][]float64, clients)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += clients {
				t0 := time.Now()
				if _, err := ten.Infer(inputs[i%len(inputs)]); err != nil {
					b.Error(err)
					return
				}
				lats[c] = append(lats[c], float64(time.Since(t0).Microseconds()))
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Float64s(all)
		b.ReportMetric(all[len(all)*99/100], "p99_us")
	}
}

func BenchmarkFleetReplicas1(b *testing.B) { benchFleet(b, 1) }
func BenchmarkFleetReplicas2(b *testing.B) { benchFleet(b, 2) }
func BenchmarkFleetReplicas4(b *testing.B) { benchFleet(b, 4) }

// BenchmarkWeightSwap measures the cost of installing a new weight
// generation into a live 8-stage server: slicing the model by the plan
// plus one pointer store. This is the full request-visible swap
// cost — requests never stop during it, so it bounds how often a
// follower can swap, not request latency.
func BenchmarkWeightSwap(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	build := func() *nn.Sequential {
		layers := make([]nn.Layer, 8)
		for i := range layers {
			layers[i] = nn.NewDense(rng, fmt.Sprintf("fc%d", i), 8, 8)
		}
		return nn.NewSequential(layers...)
	}
	srv, err := serve.NewServer(serve.Config{
		Model:             build(),
		Plan:              mustStraightPlan(b, 8, 8),
		MaxBatch:          16,
		KernelParallelism: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// Two models swapped alternately so every iteration installs a
	// distinct version; generations must strictly advance.
	models := [2]*nn.Sequential{build(), build()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.SwapModel(models[i%2], i+1); err != nil {
			b.Fatal(err)
		}
	}
}

func mustStraightPlan(b *testing.B, layers, stages int) *partition.Plan {
	b.Helper()
	prof := &ModelProfile{Model: "bench", MinibatchSize: 1, InputBytes: 4}
	for i := 0; i < layers; i++ {
		prof.Layers = append(prof.Layers, LayerProfile{
			Name: "l", FwdTime: 1, BwdTime: 2, ActivationBytes: 4, WeightBytes: 4,
		})
	}
	per := layers / stages
	var specs []partition.StageSpec
	first := 0
	for s := 0; s < stages; s++ {
		last := first + per - 1
		if s == stages-1 {
			last = layers - 1
		}
		specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: last, Replicas: 1})
		first = last + 1
	}
	plan, err := partition.NewPlan(prof, topology.Flat(stages, 1e9, topology.V100), partition.PlanOptions{Stages: specs})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func BenchmarkAllReduceModel(b *testing.B) {
	topo := topology.ClusterB(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.AllReduceTime(528<<20, 64)
	}
}

// ---- Gradient collective benchmark. ----

// gradSyncState holds one replica's gradient tensors for the collective
// benchmarks.
type gradSyncState struct {
	grads []*tensor.Tensor
}

func newGradSyncStates(replicas, layers, elems int) []*gradSyncState {
	rng := rand.New(rand.NewSource(7))
	states := make([]*gradSyncState, replicas)
	for r := range states {
		st := &gradSyncState{}
		for l := 0; l < layers; l++ {
			st.grads = append(st.grads, tensor.Randn(rng, 1, elems))
		}
		states[r] = st
	}
	return states
}

// gradSyncLayerTime is the simulated backward time of one layer in
// BenchmarkGradSync. Backward compute in a real deployment runs on the
// accelerator, so the host is free during it — modelled as sleeping to
// the layer's absolute finish deadline (absolute so coarse timer ticks
// don't accumulate) — and the overlapped ring pumps its chunks in
// exactly that window.
const gradSyncLayerTime = 1500 * time.Microsecond

// BenchmarkGradSync measures one backward pass + gradient synchronization
// across 4 replicas of an 8 MB-weight stage (8 layers × 256Ki floats)
// under the chunked ring collective. The ring starts reducing a layer's
// bucket the moment that layer's backward finishes, so its transfers and
// arithmetic hide inside the remaining backward window and only the
// first (= last finished) bucket's ring is exposed: the op should cost
// little more than the 8 × gradSyncLayerTime backward itself.
func BenchmarkGradSync(b *testing.B) {
	const (
		replicas = 4
		layers   = 8
		elems    = 256 << 10 // 256Ki floats per layer = 8 MB total
	)

	b.Run("ring", func(b *testing.B) {
		states := newGradSyncStates(replicas, layers, elems)
		tr := transport.NewChannels(replicas, 256)
		defer tr.Close()
		peers := make([]int, replicas)
		for i := range peers {
			peers[i] = i
		}
		rings := make([]*collective.RingReducer, replicas)
		for r := range rings {
			rings[r] = collective.NewRingReducer(r, peers, tr, collective.DefaultBucketBytes)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for r := 0; r < replicas; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					st, ring, inbox := states[r], rings[r], tr.Inbox(r)
					if err := ring.BeginRound(i*replicas, replicas, st.grads); err != nil {
						b.Error(err)
						return
					}
					// Pump arriving chunks throughout each layer's
					// accelerator window — the host thread is free while
					// the device computes — and mark the layer's bucket
					// ready at its finish deadline.
					t0 := time.Now()
					timer := time.NewTimer(time.Hour)
					defer timer.Stop()
					for l := layers - 1; l >= 0; l-- {
						deadline := t0.Add(time.Duration(layers-l) * gradSyncLayerTime)
						for {
							remaining := time.Until(deadline)
							if remaining <= 0 {
								break
							}
							timer.Reset(remaining)
							select {
							case m := <-inbox:
								if err := ring.Deliver(m); err != nil {
									b.Error(err)
									return
								}
							case <-timer.C:
							}
						}
						if err := ring.Ready(l); err != nil {
							b.Error(err)
							return
						}
					}
					for !ring.Idle() {
						if err := ring.Deliver(<-inbox); err != nil {
							b.Error(err)
							return
						}
					}
				}(r)
			}
			wg.Wait()
		}
	})
}
