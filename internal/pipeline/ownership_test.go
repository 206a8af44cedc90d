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
