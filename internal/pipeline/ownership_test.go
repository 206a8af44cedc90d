package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pipedream/internal/data"
	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/profile"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/transport"
)

// wideChain is a 4-stage chain that moves [32, width] activations and
// gradients over every edge with almost no compute — the shape of the
// benchmark's train-comm workload at a quarter of its message size.
func wideChain(t *testing.T, width int) (func() *nn.Sequential, *partition.Plan, data.Dataset) {
	t.Helper()
	factory := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(41))
		return nn.NewSequential(
			nn.NewDense(rng, "in", 4, width), nn.NewReLU("r0"),
			nn.NewReLU("r1"),
			nn.NewReLU("r2"),
			nn.NewDense(rng, "out", width, 3))
	}
	plan, err := partition.NewPlan(syntheticProfileFor(factory()), topology.Flat(4, 1e9, topology.V100),
		partition.PlanOptions{Stages: []partition.StageSpec{
			{FirstLayer: 0, LastLayer: 1, Replicas: 1}, {FirstLayer: 2, LastLayer: 2, Replicas: 1},
			{FirstLayer: 3, LastLayer: 3, Replicas: 1}, {FirstLayer: 4, LastLayer: 4, Replicas: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	return factory, plan, data.NewBlobs(43, 3, 4, 32, 64)
}

// recorder remembers the array of every tensor the transport delivers: it
// taps each inbox on its way to the worker.
type recorder struct {
	transport.Transport
	mu        sync.Mutex
	taps      map[int]chan transport.Message
	delivered map[unsafe.Pointer]int // array -> elements
	wg        sync.WaitGroup
}

func (r *recorder) Inbox(w int) <-chan transport.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch, ok := r.taps[w]; ok {
		return ch
	}
	ch := make(chan transport.Message, 64)
	r.taps[w] = ch
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(ch)
		for m := range r.Transport.Inbox(w) {
			if m.Tensor != nil {
				r.mu.Lock()
				r.delivered[unsafe.Pointer(unsafe.SliceData(m.Tensor.Data))] = m.Tensor.Size()
				r.mu.Unlock()
			}
			ch <- m
		}
	}()
	return ch
}

// Whatever the in-process transport delivers is the receiving worker's, and
// every activation, gradient and gradient chunk it was handed is back in
// the pool when Train returns, whatever the plan's shape — the duplicates a
// chaos layer injects and the worker drops included, and frames of a kind
// no training worker consumes. The check empties the
// pool's size classes of everything put there during training and looks for
// each array that crossed the transport. Each run's op log passes
// schedule.Validate, duplicated deliveries or not.
func TestChannelsTensorsAreRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P, so every Put of the run sits where this goroutine's Gets look,
	// and no collection, which would empty the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name     string
		replicas []int
		graph    *partition.StageGraph
		dups     bool
		strays   bool // every worker is sent a frame of the retired kind 2 and a Prediction
	}{
		{"3-1", []int{3, 1}, nil, false, false},
		{"diamond", []int{1, 1, 1, 1}, diamondGraph, false, false},
		{"twohead", []int{1, 1, 1, 1}, twoHeadGraph, false, false},
		{"diamond-dups", []int{1, 1, 1, 1}, diamondGraph, true, false},
		{"twohead-dups", []int{1, 1, 1, 1}, twoHeadGraph, true, false},
		{"3-1-strays", []int{3, 1}, nil, false, true},
	} {
		for _, recompute := range []bool{false, true} {
			factory, plan := shapePlan(t, c.replicas, c.graph)
			opts := baseOptions(factory, plan)
			opts.Plan = plan // its own depth
			opts.Recompute = recompute
			opts.OpLog = metrics.NewOpLog(0)
			var tr transport.Transport = transport.NewChannels(plan.Workers, 64)
			if c.dups {
				tr = transport.NewChaos(tr, transport.ChaosConfig{Seed: 3, DupRate: 0.5})
			}
			rec := &recorder{Transport: tr, taps: map[int]chan transport.Message{}, delivered: map[unsafe.Pointer]int{}}
			opts.Transport = rec
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.strays {
				x := tensor.GetRaw(5)
				for w := 0; w < plan.Workers; w++ {
					for _, kind := range []transport.MsgKind{2, transport.Prediction} {
						if err := rec.Send(w, transport.Message{Kind: kind, Tensor: x}); err != nil {
							t.Fatal(err)
						}
					}
				}
				tensor.Put(x)
			}
			if _, err := p.Train(data.NewBlobs(23, 3, 4, 8, 12), 12); err != nil {
				t.Fatal(err)
			}
			validateOpLog(t, opts.OpLog, plan, 12)
			rec.Close()
			rec.wg.Wait()
			if len(rec.delivered) == 0 {
				t.Fatal("no tensor crossed the transport")
			}
			dropped := 0
			for _, sw := range p.workers {
				dropped += sw.dupDrops
			}
			if (dropped > 0) != (c.dups || c.strays) || c.strays && dropped != 2*plan.Workers {
				t.Fatalf("%s: %d deliveries dropped, duplicates injected: %v, strays: %v", c.name, dropped, c.dups, c.strays)
			}
			// A duplicate of a worker's last message is still in its inbox.
			for _, ch := range rec.taps {
				for m := range ch {
					delete(rec.delivered, unsafe.Pointer(unsafe.SliceData(m.Tensor.Data)))
				}
			}
			pooled := map[unsafe.Pointer]bool{}
			for _, n := range rec.delivered {
				for {
					_, misses0, _ := tensor.PoolCounters()
					x := tensor.GetRaw(n)
					if _, misses1, _ := tensor.PoolCounters(); misses1 != misses0 {
						break // the size class is empty
					}
					pooled[unsafe.Pointer(unsafe.SliceData(x.Data))] = true
				}
			}
			for array, n := range rec.delivered {
				if !pooled[array] {
					t.Fatalf("%s recompute=%v: a [%d] tensor delivered over Channels was not put back", c.name, recompute, n)
				}
			}
		}
	}
}

// chainTransport is the transport of the allocation tests' chains: loopback
// TCP or the in-process channels, which the ownership rule makes alike.
func chainTransport(t *testing.T, tcp bool, workers int) transport.Transport {
	t.Helper()
	if !tcp {
		return transport.NewChannels(workers, 32)
	}
	tr, err := transport.NewTCP(workers, 32)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// After the first Train call on a 4-stage chain the pool serves at least
// nine Gets in ten, over either transport: every delivery lands in a tensor
// the previous minibatches' consumers returned.
func TestChainPoolHitRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, tcp := range []bool{false, true} {
		factory, plan, ds := wideChain(t, 2048)
		tr := chainTransport(t, tcp, plan.Workers)
		defer tr.Close()
		opts := baseOptions(factory, plan)
		opts.Plan = plan // its own depth
		opts.Transport = tr
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Train(ds, 16); err != nil {
			t.Fatal(err)
		}
		// A collection empties sync.Pool (the layers' own outputs are garbage
		// every minibatch); the ratio asked for is the recycling's, so keep
		// collections out of the measured call.
		restore := debug.SetGCPercent(-1)
		hits0, misses0, _ := tensor.PoolCounters()
		_, err = p.Train(ds, 48)
		hits1, misses1, _ := tensor.PoolCounters()
		debug.SetGCPercent(restore)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := hits1-hits0, misses1-misses0
		ratio := float64(hits) / float64(hits+misses)
		t.Logf("tcp=%v pool: %d hits, %d misses (ratio %.3f) over 48 minibatches", tcp, hits, misses, ratio)
		if ratio < 0.9 {
			t.Fatalf("tcp=%v: pool hit ratio %.3f after warm-up, want ≥ 0.9", tcp, ratio)
		}
	}
}

// cutFrame plays a sender that dies mid-payload: it writes worker w a
// valid "PDF2" header announcing a [32, width] activation, half the
// payload, and hangs up.
func cutFrame(t *testing.T, tcp *transport.TCP, w, width int) {
	t.Helper()
	conn, err := net.Dial("tcp", tcp.Addr(w))
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	le := binary.LittleEndian
	b := make([]byte, 56+8+4*32*width/2)
	le.PutUint32(b[0:], 0x50444632)
	le.PutUint32(b[4:], uint32(transport.Activation))
	le.PutUint64(b[8:], 1<<40) // a minibatch no window reaches
	le.PutUint32(b[44:], 2)
	le.PutUint32(b[56:], 32)
	le.PutUint32(b[60:], uint32(width))
	if _, err := conn.Write(b); err != nil {
		t.Error(err)
	}
}

// Faults on the byte path of a 4-stage TCP Train — connections severed at
// random, so that senders re-dial and resend, and senders that die
// mid-payload — deliver nothing partial: the cut frames are counted and
// dropped, and training ends bit-equal to the fault-free run. (Whether
// the storm itself cuts a frame is a matter of timing, hence the played
// ones.)
func TestBreakConnStormTrainsBitEqual(t *testing.T) {
	const width, window, windows = 2048, 16, 6
	factory, plan, ds := wideChain(t, width)
	run := func(storm bool) (losses []float64, params map[int][]uint32, faults FaultStats) {
		tcp, err := transport.NewTCP(plan.Workers, 32)
		if err != nil {
			t.Fatal(err)
		}
		defer tcp.Close()
		opts := baseOptions(factory, plan)
		opts.Plan = plan // its own depth
		opts.Transport = tcp
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if storm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						tcp.BreakConn(i % plan.Workers)
						if i%64 == 0 {
							cutFrame(t, tcp, 1+i/64%3, width)
						}
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
		}
		for i := 0; i < windows; i++ {
			rep, err := p.Train(ds, window)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, rep.Losses...)
			faults.TransportRecvErrors += rep.Faults.TransportRecvErrors
			faults.TransportReconnects += rep.Faults.TransportReconnects
		}
		close(stop)
		wg.Wait()
		return losses, paramBits([]*Pipeline{p}), faults
	}
	losses, params, faults := run(true)
	t.Logf("%d frames cut short, %d reconnects after a failed send", faults.TransportRecvErrors, faults.TransportReconnects)
	if faults.TransportRecvErrors == 0 {
		t.Fatalf("no cut frame was counted: %+v", faults)
	}
	wantLosses, wantParams, clean := run(false)
	if clean.TransportRecvErrors != 0 {
		t.Fatalf("fault-free run counted %d receive errors", clean.TransportRecvErrors)
	}
	for mb := range wantLosses {
		if math.Float64bits(losses[mb]) != math.Float64bits(wantLosses[mb]) {
			t.Fatalf("loss[%d] = %v under the storm, %v without", mb, losses[mb], wantLosses[mb])
		}
	}
	if fmt.Sprint(params) != fmt.Sprint(wantParams) {
		t.Fatal("final weights differ from the fault-free run")
	}
}

// A warmed-up Train call allocates no tensor, over loopback TCP and over the
// in-process transport alike: every layer output, gradient, loss gradient,
// weight stash and delivered message is a pool hit that an earlier
// minibatch's owner put back, with and without recomputation. What is left
// per minibatch is headers, label slices and bookkeeping.
func TestTrainStepAllocatesNoTensors(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P, so every Put of the run sits where the next Get looks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const perCall = 32
	for _, c := range []struct {
		name    string
		factory func() *nn.Sequential
		stages  []partition.StageSpec
		ds      data.Dataset
	}{
		{
			name: "embedding-relu-relu-dense",
			factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(41))
				return nn.NewSequential(nn.NewEmbedding(rng, "emb", 4, 256), nn.NewReLU("r1"), nn.NewReLU("r2"),
					nn.NewFlattenTime("ft"), nn.NewDense(rng, "dec", 256, 4))
			},
			stages: stagesOf(0, 1, 2, 4),
			ds:     data.NewSequenceCopy(43, 4, 16, 8, perCall),
		},
		{
			name: "dense-tanh",
			factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(41))
				return nn.NewSequential(
					nn.NewDense(rng, "a1", 8, 256), nn.NewTanh("t1"), nn.NewDense(rng, "a2", 256, 4), nn.NewTanh("t2"),
					nn.NewDense(rng, "b1", 4, 256), nn.NewTanh("t3"), nn.NewDense(rng, "b2", 256, 3))
			},
			stages: stagesOf(3, 6),
			ds:     data.NewBlobs(43, 3, 8, 64, perCall),
		},
	} {
		for _, run := range []struct{ tcp, recompute bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
			tcp, recompute := run.tcp, run.recompute
			plan, err := partition.NewPlan(syntheticProfileFor(c.factory()), topology.Flat(len(c.stages), 1e9, topology.V100),
				partition.PlanOptions{Stages: c.stages})
			if err != nil {
				t.Fatal(err)
			}
			opts := baseOptions(c.factory, plan)
			opts.Plan = plan // its own depth
			opts.Recompute = recompute
			opts.Transport = chainTransport(t, tcp, plan.Workers)
			defer opts.Transport.Close()
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // dial, size the header buffers, fill the pool
				if _, err := p.Train(c.ds, perCall); err != nil {
					t.Fatal(err)
				}
			}
			// The best of three calls: a leak shows in every call, whereas the
			// workers' interleaving now and then makes more tensors of a size
			// live at once than ever before, which grows the pool once. A
			// collection empties sync.Pool; keep one out of the measured calls.
			restore := debug.SetGCPercent(-1)
			bytes, mallocs, misses := uint64(math.MaxUint64), uint64(0), int64(math.MaxInt64)
			for i := 0; i < 3 && err == nil; i++ {
				var ms0, ms1 runtime.MemStats
				_, misses0, _ := tensor.PoolCounters()
				runtime.ReadMemStats(&ms0)
				_, err = p.Train(c.ds, perCall)
				runtime.ReadMemStats(&ms1)
				_, misses1, _ := tensor.PoolCounters()
				if b := ms1.TotalAlloc - ms0.TotalAlloc; b < bytes {
					bytes, mallocs = b, ms1.Mallocs-ms0.Mallocs
				}
				misses = min(misses, misses1-misses0)
			}
			debug.SetGCPercent(restore)
			if err != nil {
				t.Fatal(err)
			}
			perMB := bytes / perCall
			t.Logf("%s tcp=%v recompute=%v: %d B in %d allocations per minibatch, %d pool misses in %d minibatches",
				c.name, tcp, recompute, perMB, mallocs/perCall, misses, perCall)
			if perMB >= 8<<10 {
				t.Errorf("%s tcp=%v recompute=%v: a minibatch allocates %d B, want < 8 KB", c.name, tcp, recompute, perMB)
			}
			if misses != 0 {
				t.Errorf("%s tcp=%v recompute=%v: %d pool misses in a warmed-up call, want none", c.name, tcp, recompute, misses)
			}
		}
	}
}

// profile.Measure, which calls the layers one by one, owns every tensor
// they hand it and puts each back once: a second profile of a model with
// views at both ends of the stack and contexts that are layer outputs
// takes nothing new from the pool and (the detector is on) releases no
// array twice. It lives here because this package's tests have the
// detector.
func TestProfileMeasureReleasesWhatItTakes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: every Put sits where the next Get looks
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(3))
	model := nn.NewSequential(
		nn.NewFlatten("in"),
		nn.NewDense(rng, "fc1", 6, 32), nn.NewTanh("t"),
		nn.NewDropout(rng, "identity", 0),
		nn.NewDense(rng, "fc2", 32, 3), nn.NewSigmoid("s"),
		nn.NewFlatten("out"),
	)
	ds := data.NewImages(5, 3, 6, 1, 8, 4)
	profile.Measure(model, "views", ds, 2)
	_, misses0, _ := tensor.PoolCounters()
	prof := profile.Measure(model, "views", ds, 2)
	_, misses1, _ := tensor.PoolCounters()
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	if misses1 != misses0 && !raceEnabled {
		t.Fatalf("the second profile missed the pool %d times", misses1-misses0)
	}
}

// stagesOf cuts a chain into unreplicated stages ending at the given layers.
func stagesOf(last ...int) []partition.StageSpec {
	var specs []partition.StageSpec
	first := 0
	for _, l := range last {
		specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: l, Replicas: 1})
		first = l + 1
	}
	return specs
}

// outstanding is how many pooled tensors are taken and not yet put back.
func outstanding() int64 {
	hits, misses, puts := tensor.PoolCounters()
	return hits + misses - puts
}

// swallow takes every message without delivering it (Send only borrows).
type swallow struct{ transport.Transport }

func (swallow) Send(int, transport.Message) error { return nil }

// handWorker builds opts' pipeline over a transport that delivers nothing
// and returns it with the worker of one stage, whose forward and backward
// a test calls by hand.
func handWorker(t *testing.T, opts Options, stage int) (*Pipeline, *stageWorker) {
	t.Helper()
	opts.Transport = swallow{transport.NewChannels(opts.Plan.Workers, 8)}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range p.workers {
		if sw.stage == stage {
			sw.results = make(chan lossEvent, 1)
			return p, sw
		}
	}
	t.Fatalf("no worker runs stage %d", stage)
	return nil, nil
}

// overwriteLoss scores pred and writes its gradient over pred itself.
func overwriteLoss(pred *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	loss, grad := nn.SoftmaxCrossEntropy(pred, labels)
	copy(pred.Data, grad.Data)
	tensor.Put(grad)
	return loss, pred
}

// A stage whose layer contexts do not read its input releases the input
// when its forward ends — a ReLU-first stage, whose rectifiers write over
// it and keep their masks — and keeps it under recomputation, which
// restarts from it, at a Dense-first sink, whose context it is, at a
// Tanh-first stage, whose first Tanh writes over it and reads that output,
// and at a fan-in stage, whose arrivals are summed into the first one and
// its ReLU writes over that sum, which the Dense reads. A sink whose loss
// writes over a view of its input releases that array once, as the
// gradient. Each stage runs one forward and one backward by hand; the
// pool's counters (hits + misses − puts) say how many tensors the worker
// holds between the two, the stash entry whether the input is one of
// them, and after the backward none is left.
func TestUnreadStageInputReleasedAtForwardEnd(t *testing.T) {
	chain := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(5))
		return nn.NewSequential(nn.NewDense(rng, "in", 4, 8), nn.NewReLU("r1"), nn.NewReLU("r2"),
			nn.NewTanh("t1"), nn.NewTanh("t2"), nn.NewDense(rng, "out", 8, 3))
	}
	diamond := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(5))
		return nn.NewSequential(nn.NewDense(rng, "in", 4, 8), nn.NewTanh("a"), nn.NewTanh("b"),
			nn.NewReLU("join"), nn.NewDense(rng, "out", 8, 3))
	}
	views := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(5))
		return nn.NewSequential(nn.NewDense(rng, "in", 4, 3), nn.NewFlatten("head"))
	}
	for _, c := range []struct {
		name    string
		factory func() *nn.Sequential
		stages  []partition.StageSpec
		graph   *partition.StageGraph
		loss    LossFunc
		stage   int
		// held is how many tensors the worker holds after the forward,
		// without and with recomputation; released: the input is not one
		// of them without.
		held     [2]int
		released bool
	}{
		{"relu-first", chain, stagesOf(0, 2, 4, 5), nil, nil, 1, [2]int{2, 1}, true},                    // two masks | the input
		{"tanh-first", chain, stagesOf(0, 2, 4, 5), nil, nil, 2, [2]int{2, 1}, false},                   // the input t1 wrote over, the stage output | the input
		{"dense-first sink", chain, stagesOf(0, 2, 4, 5), nil, nil, 3, [2]int{2, 2}, false},             // the input, the loss gradient
		{"fan-in relu-first", diamond, stagesOf(0, 1, 2, 4), diamondGraph, nil, 3, [2]int{3, 2}, false}, // mask, the join ReLU wrote over, loss gradient | join, gradient
		{"sink loss over a view of its input", views, stagesOf(0, 1), nil, overwriteLoss, 1, [2]int{1, 1}, false},
	} {
		for i, recompute := range []bool{false, true} {
			plan, err := partition.NewPlan(syntheticProfileFor(c.factory()), topology.Flat(len(c.stages), 1e9, topology.V100),
				partition.PlanOptions{Stages: c.stages, Graph: c.graph})
			if err != nil {
				t.Fatal(err)
			}
			opts := baseOptions(c.factory, plan)
			opts.Recompute = recompute
			if c.loss != nil {
				opts.Loss = c.loss
			}
			p, sw := handWorker(t, opts, c.stage)
			before := outstanding()
			width := 8
			if c.loss != nil {
				width = 3 // the head flattens its [8, 3] input
			}
			x := tensor.GetRaw(8, width)
			for j := range x.Data {
				x.Data[j] = float32(j%7)/7 - 0.4
			}
			m := transport.Message{Kind: transport.Activation, Tensor: x, Labels: []int{0, 1, 2, 0, 1, 2, 0, 1}}
			if len(sw.preds) > 1 {
				// The fan-in stage: one arrival per in-edge, joined by forward.
				x2 := tensor.GetRaw(8, width)
				copy(x2.Data, x.Data)
				sw.fwdPend = map[int]map[int]transport.Message{0: {sw.preds[0]: {Tensor: x}, sw.preds[1]: {Tensor: x2}}}
				m.Tensor = nil
			}
			ab := newRunAbort()
			if err := sw.forward(m, ab); err != nil {
				t.Fatal(err)
			}
			entry := sw.stash[0]
			if held := outstanding() - before; held != int64(c.held[i]) || (entry.input == nil) != (c.released && !recompute) {
				t.Errorf("%s recompute=%v: after the forward the worker holds %d tensors, the input released: %v; want %d, %v",
					c.name, recompute, held, entry.input == nil, c.held[i], c.released && !recompute)
			}
			g, ok := sw.bwdReady[0] // a sink's loss gradient
			if !ok {
				g = transport.Message{Kind: transport.Gradient, Tensor: tensor.GetRaw(8, 8)}
				for j := range g.Tensor.Data {
					g.Tensor.Data[j] = float32(j%5) / 5
				}
			}
			delete(sw.bwdReady, 0)
			if err := sw.backward(g, ab); err != nil {
				t.Fatal(err)
			}
			if held := outstanding() - before; held != 0 || sw.stashBytes != 0 {
				t.Errorf("%s recompute=%v: %d pooled tensors and %d stash bytes outstanding after the backward, want 0",
					c.name, recompute, held, sw.stashBytes)
			}
			p.Close()
		}
	}
}
