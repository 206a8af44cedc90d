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

// recorder remembers every tensor handed to Send.
type recorder struct {
	transport.Transport
	mu   sync.Mutex
	sent []*tensor.Tensor
}

func (r *recorder) Send(to int, m transport.Message) error {
	if m.Tensor != nil {
		r.mu.Lock()
		r.sent = append(r.sent, m.Tensor)
		r.mu.Unlock()
	}
	return r.Transport.Send(to, m)
}

// On the in-process transport a message is the sender's pointer: the
// pipeline hands no activation, gradient or exchanged gradient to
// tensor.Put, whatever the plan's shape. The check empties the pool's size
// classes of everything recycled during training and looks for a tensor
// that crossed the transport.
func TestChannelsTensorsAreNeverRecycled(t *testing.T) {
	// One P, so every Put of the run sits where this goroutine's Gets look.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name     string
		replicas []int
		graph    *partition.StageGraph
	}{
		{"3-1-central", []int{3, 1}, nil},
		{"diamond", []int{1, 1, 1, 1}, diamondGraph},
		{"twohead", []int{1, 1, 1, 1}, twoHeadGraph},
	} {
		for _, recompute := range []bool{false, true} {
			factory, plan := shapePlan(t, c.replicas, c.graph)
			opts := baseOptions(factory, plan)
			opts.Depth = 0
			opts.Recompute = recompute
			rec := &recorder{Transport: transport.NewChannels(plan.Workers, 64)}
			opts.Transport = rec
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Train(data.NewBlobs(23, 3, 4, 8, 12), 12); err != nil {
				t.Fatal(err)
			}
			rec.Close()
			crossed := map[unsafe.Pointer]bool{}
			sizes := map[int]bool{}
			for _, x := range rec.sent {
				crossed[unsafe.Pointer(unsafe.SliceData(x.Data))] = true
				sizes[x.Size()] = true
			}
			if len(crossed) == 0 {
				t.Fatal("no tensor crossed the transport")
			}
			for n := range sizes {
				for {
					_, misses0, _ := tensor.PoolCounters()
					x := tensor.GetRaw(n)
					if _, misses1, _ := tensor.PoolCounters(); misses1 != misses0 {
						break // the size class is empty
					}
					if crossed[unsafe.Pointer(unsafe.SliceData(x.Data))] {
						t.Fatalf("%s recompute=%v: a tensor sent over Channels was recycled", c.name, recompute)
					}
				}
			}
		}
	}
}

// After the first Train call on a 4-stage TCP chain the pool serves at
// least nine Gets in ten: every frame decodes into a tensor the previous
// minibatches' consumers returned.
func TestTCPChainPoolHitRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	factory, plan, ds := wideChain(t, 2048)
	tcp, err := transport.NewTCP(plan.Workers, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	opts := baseOptions(factory, plan)
	opts.Depth = 0
	opts.Transport = tcp
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hits0, misses0, _ := tensor.PoolCounters()
	if _, err := p.Train(ds, 48); err != nil {
		t.Fatal(err)
	}
	hits1, misses1, _ := tensor.PoolCounters()
	hits, misses := hits1-hits0, misses1-misses0
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("pool: %d hits, %d misses (ratio %.3f) over 48 minibatches", hits, misses, ratio)
	if ratio < 0.9 {
		t.Fatalf("pool hit ratio %.3f after warm-up, want ≥ 0.9", ratio)
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
		opts.Depth = 0
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

// A warmed-up Train call allocates no tensor: every layer output, gradient,
// loss gradient, weight stash and decoded frame is a pool hit that an
// earlier minibatch's owner put back, with and without recomputation. What
// is left per minibatch is headers, label slices and bookkeeping. Over
// loopback TCP that holds for the stage boundaries too; over the in-process
// transport a stage output and the gradient returned for it cross as
// pointers and are never recycled (TestChannelsTensorsAreNeverRecycled), so
// that plan keeps its boundaries narrow (1 KB each against 64 KB inside the
// stages) and is allowed those two pool misses per minibatch — and a few
// more: the two drain a size class that the stages' own [64, 4] tensors
// share, so whether one of those finds it empty depends on how the workers
// interleave.
func TestTrainStepAllocatesNoTensors(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P, so every Put of the run sits where the next Get looks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const perCall = 32
	stagesOf := func(last ...int) []partition.StageSpec {
		var specs []partition.StageSpec
		first := 0
		for _, l := range last {
			specs = append(specs, partition.StageSpec{FirstLayer: first, LastLayer: l, Replicas: 1})
			first = l + 1
		}
		return specs
	}
	for _, c := range []struct {
		name    string
		factory func() *nn.Sequential
		stages  []partition.StageSpec
		ds      data.Dataset
		tcp     bool
		misses  int64 // allowed in the measured call
	}{
		{
			name: "tcp-embedding-relu-relu-dense",
			factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(41))
				return nn.NewSequential(nn.NewEmbedding(rng, "emb", 4, 256), nn.NewReLU("r1"), nn.NewReLU("r2"),
					nn.NewFlattenTime("ft"), nn.NewDense(rng, "dec", 256, 4))
			},
			stages: stagesOf(0, 1, 2, 4),
			ds:     data.NewSequenceCopy(43, 4, 16, 8, perCall),
			tcp:    true,
		},
		{
			name: "channels-dense-tanh",
			factory: func() *nn.Sequential {
				rng := rand.New(rand.NewSource(41))
				return nn.NewSequential(
					nn.NewDense(rng, "a1", 8, 256), nn.NewTanh("t1"), nn.NewDense(rng, "a2", 256, 4), nn.NewTanh("t2"),
					nn.NewDense(rng, "b1", 4, 256), nn.NewTanh("t3"), nn.NewDense(rng, "b2", 256, 3))
			},
			stages: stagesOf(3, 6),
			ds:     data.NewBlobs(43, 3, 8, 64, perCall),
			misses: 2*perCall + 4,
		},
	} {
		for _, recompute := range []bool{false, true} {
			plan, err := partition.NewPlan(syntheticProfileFor(c.factory()), topology.Flat(len(c.stages), 1e9, topology.V100),
				partition.PlanOptions{Stages: c.stages})
			if err != nil {
				t.Fatal(err)
			}
			opts := baseOptions(c.factory, plan)
			opts.Depth = 0
			opts.Recompute = recompute
			if c.tcp {
				tcp, err := transport.NewTCP(plan.Workers, 32)
				if err != nil {
					t.Fatal(err)
				}
				defer tcp.Close()
				opts.Transport = tcp
			}
			p, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
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
			t.Logf("%s recompute=%v: %d B in %d allocations per minibatch, %d pool misses in %d minibatches",
				c.name, recompute, perMB, mallocs/perCall, misses, perCall)
			if perMB >= 8<<10 {
				t.Errorf("%s recompute=%v: a minibatch allocates %d B, want < 8 KB", c.name, recompute, perMB)
			}
			if misses > c.misses {
				t.Errorf("%s recompute=%v: %d pool misses in a warmed-up call, want at most %d", c.name, recompute, misses, c.misses)
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
