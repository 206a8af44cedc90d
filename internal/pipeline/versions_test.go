package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

func bitsOf(ts []*tensor.Tensor) []uint32 {
	var out []uint32
	for _, t := range ts {
		for _, v := range t.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

func sameBits(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The version table against the copy-based reference it replaces (a plain
// snapshot of the weights per forward, a plain in-place step), over random
// interleavings of forward, backward, optimizer step and prune: at every
// backward the parameters the layers see are bit for bit the snapshot taken
// at that minibatch's forward; between ops they are the latest weights; no
// more arrays are live than versions are listed or held (in-flight + 1 under
// weight stashing); an array on the free list carries the release mark and
// is there once; and when everything has drained one array is live and all
// others are free.
func TestWeightVersionTableMatchesCopyReference(t *testing.T) {
	const poisonBits = 0x7fa0dead
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mode := []StalenessMode{WeightStashing, VerticalSync}[rng.Intn(2)]
		accum, depth := 1+rng.Intn(3), 1+rng.Intn(4)
		name := fmt.Sprintf("seed %d (%v, accum %d, depth %d)", seed, mode, accum, depth)

		shapes := [][]int{{3, 2}, {1}, {0}, {2, 4}}
		newParams := func() []*tensor.Tensor {
			r := rand.New(rand.NewSource(seed))
			var ps []*tensor.Tensor
			for _, s := range shapes {
				ps = append(ps, tensor.Randn(r, 1, s...))
			}
			return ps
		}
		params, ref := newParams(), newParams()
		opt, refOpt := nn.NewSGD(0.1, 0.9, 1e-2), nn.NewSGD(0.1, 0.9, 1e-2)
		table := newWeightVersions(params)

		type version struct {
			key  int
			bits []uint32
		}
		history := []version{{0, bitsOf(ref)}} // every version ever written, as copies
		type inflight struct {
			held     *weightVersion
			snapshot []uint32
			tag      int
		}
		var stash []inflight
		updates, pending, floor := 0, 0, 0 // floor: the largest min prune was given

		check := func(what string) {
			t.Helper()
			if table.bound != table.latest() || !sameBits(bitsOf(params), history[len(history)-1].bits) {
				t.Fatalf("%s: after %s the model is not bound to the latest weights", name, what)
			}
			held := map[*weightVersion]bool{}
			for _, e := range stash {
				held[e.held] = true
			}
			unlisted := 0
			for v := range held {
				if !v.listed {
					unlisted++
				}
				for _, x := range v.data {
					if math.Float32bits(x) == poisonBits {
						t.Fatalf("%s: after %s a held version carries the release mark", name, what)
					}
				}
			}
			live := table.arrays - len(table.free)
			if live != len(table.listed)+unlisted {
				t.Fatalf("%s: after %s %d arrays are live for %d listed and %d held-only versions", name, what, live, len(table.listed), unlisted)
			}
			if mode == WeightStashing && live > len(stash)+1 {
				t.Fatalf("%s: after %s %d arrays are live with %d minibatches in flight", name, what, live, len(stash))
			}
			seen := map[*weightVersion]bool{}
			for _, v := range table.free {
				if seen[v] || v.listed || v.holders != 0 {
					t.Fatalf("%s: after %s the free list holds an array twice or one still referred to", name, what)
				}
				seen[v] = true
				for _, x := range v.data {
					if math.Float32bits(x) != poisonBits {
						t.Fatalf("%s: after %s a freed array is not marked released", name, what)
					}
				}
			}
		}
		backward := func(i int) {
			e := stash[i]
			stash = append(stash[:i], stash[i+1:]...)
			table.bind(e.held)
			if !sameBits(bitsOf(params), e.snapshot) {
				t.Fatalf("%s: backward sees other weights than its forward's snapshot", name)
			}
			table.bind(table.latest())
			table.release(e.held)
			updates++
			pending++
			if pending == accum {
				pending = 0
				grads := newParams()
				for _, g := range grads {
					for j := range g.Data {
						g.Data[j] = float32(rng.NormFloat64())
					}
				}
				refOpt.Step(ref, grads) // first: the table's step writes over grads
				tensor.Pack(grads)
				table.step(opt, grads, updates)
				history = append(history, version{updates, bitsOf(ref)})
			}
			oldest := updates
			if mode == VerticalSync {
				for _, e := range stash {
					oldest = min(oldest, e.tag)
				}
				oldest = min(oldest, updates-rng.Intn(4))
			}
			floor = max(floor, oldest)
			table.prune(oldest)
			check("backward")
		}
		for op := 0; op < 80; op++ {
			if len(stash) < depth && (len(stash) == 0 || rng.Intn(2) == 0) {
				held, want, tag := table.latest(), history[len(history)-1].bits, updates
				if mode == VerticalSync {
					tag = floor + rng.Intn(updates-floor+1)
					held = table.lookup(tag)
					for _, v := range history {
						if v.key <= tag {
							want = v.bits
						}
					}
				}
				if held == nil {
					t.Fatalf("%s: no version for tag %d above the prune floor %d (listed %v)", name, tag, floor, table.keys())
				}
				table.hold(held)
				table.bind(held)
				if !sameBits(bitsOf(params), want) {
					t.Fatalf("%s: forward tagged %d runs under other weights than the reference's", name, tag)
				}
				table.bind(table.latest())
				stash = append(stash, inflight{held, want, tag})
				check("forward")
				continue
			}
			backward(rng.Intn(len(stash)))
		}
		for len(stash) > 0 {
			backward(0)
		}
		table.prune(updates)
		check("drain")
		if len(table.listed) != 1 || len(table.free) != table.arrays-1 {
			t.Fatalf("%s: drained table lists %d versions with %d of %d arrays free", name, len(table.listed), len(table.free), table.arrays)
		}
	}
}

// arrayProbe wraps a stage's first Dense layer: at every forward it notes
// which array the layer's weights are in and what they hold, and at the
// matching backward it checks that the layer is looking at that very array,
// unchanged — the weights were kept, not copied and copied back.
type arrayProbe struct {
	*nn.Dense
	mu     *sync.Mutex
	errors *[]string
}

type arrayProbeCtx struct {
	inner nn.Context
	array *float32
	sum   uint64
}

// bitSum is an order-sensitive checksum of t's bits that allocates nothing.
func bitSum(t *tensor.Tensor) uint64 {
	var h uint64
	for _, v := range t.Data {
		h = h*1099511628211 + uint64(math.Float32bits(v))
	}
	return h
}

func (p *arrayProbe) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	y, ctx := p.Dense.Forward(x, train)
	return y, &arrayProbeCtx{ctx, &p.W.Data[0], bitSum(p.W)}
}

func (p *arrayProbe) Backward(ctx nn.Context, gradOut *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*arrayProbeCtx)
	if &p.W.Data[0] != c.array || bitSum(p.W) != c.sum {
		p.mu.Lock()
		*p.errors = append(*p.errors, p.Name()+": backward reads its weights from another array, or other values, than its forward did")
		p.mu.Unlock()
	}
	return p.Dense.Backward(c.inner, gradOut)
}

// A warmed-up Train copies no parameter and no gradient outside the
// optimizer's own write and the wire: the weights a backward reads are in
// the array its forward ran on (pointer identity, at every minibatch of
// every stage), the model ends each call bound to the latest version, no
// version array is made once the table has in-flight + 1 of them, the
// gradients are still views of the one arena the worker clears and reduces,
// keeping versions takes nothing from the tensor pool (a run takes exactly
// as many pooled tensors as the same run with no stashing at all), and the
// heap sees less than a quarter of one stage's weights per minibatch.
func TestWeightVersionsAreNotCopied(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const perCall = 32
	for _, shape := range []struct {
		name     string
		replicas []int
	}{
		{"2-1", []int{2, 1}},
		{"chain3", []int{1, 1, 1}},
	} {
		for optName, newOpt := range map[string]func() nn.Optimizer{
			"sgd":      func() nn.Optimizer { return nn.NewSGD(0.05, 0, 0) },
			"momentum": func() nn.Optimizer { return nn.NewSGD(0.05, 0.9, 1e-3) },
			"adam":     func() nn.Optimizer { return nn.NewAdam(0.01) },
			"lars":     func() nn.Optimizer { return nn.NewLARS(0.5, 0.9, 1e-3, 0.02) },
		} {
			name := shape.name + "/" + optName
			// Stages of Dense(128→128)+Tanh: 64 KB of weights each against 4 KB
			// activations, so a copied version would dominate the heap count.
			_, plan := shapePlan(t, shape.replicas, nil) // two layers per stage, as below
			factory := func() *nn.Sequential {
				rng := rand.New(rand.NewSource(17))
				var layers []nn.Layer
				for s := range shape.replicas {
					in, out := 128, 128
					if s == 0 {
						in = 4
					}
					if s == len(shape.replicas)-1 {
						out = 3
					}
					layers = append(layers, nn.NewDense(rng, fmt.Sprintf("fc%d", s), in, out), nn.NewTanh(fmt.Sprintf("t%d", s)))
				}
				return nn.NewSequential(layers...)
			}
			ds := data.NewBlobs(23, 3, 4, 8, perCall)
			var mu sync.Mutex
			var probeErrors []string
			gets := map[StalenessMode]int64{}
			for _, mode := range []StalenessMode{NoStashing, WeightStashing} {
				tcp, err := transport.NewTCP(plan.Workers, 32)
				if err != nil {
					t.Fatal(err)
				}
				opts := baseOptions(factory, plan)
				opts.Plan = plan // its own depth
				opts.Mode = mode
				opts.NewOptimizer = newOpt
				opts.Transport = tcp
				p, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				// Layer 0 is probed in both modes, so that both runs do the same
				// work: a probe's backward is one piece, input gradient
				// included. Only weight stashing promises the probe its
				// forward's array.
				errs := &probeErrors
				if mode == NoStashing {
					errs = new([]string)
				}
				for _, sw := range p.workers {
					sw.model.Layers[0] = &arrayProbe{Dense: sw.model.Layers[0].(*nn.Dense), mu: &mu, errors: errs}
				}
				for i := 0; i < 2; i++ {
					if _, err := p.Train(ds, perCall); err != nil {
						t.Fatal(err)
					}
				}
				arrays := map[int]int{}
				for _, sw := range p.workers {
					arrays[sw.id] = sw.weights.arrays
				}
				var ms0, ms1 runtime.MemStats
				hits0, misses0, _ := tensor.PoolCounters()
				runtime.ReadMemStats(&ms0)
				if _, err := p.Train(ds, perCall); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms1)
				hits1, misses1, _ := tensor.PoolCounters()
				gets[mode] = hits1 + misses1 - hits0 - misses0
				for _, sw := range p.workers {
					w := sw.weights
					if w.arrays != arrays[sw.id] || w.arrays > p.Plan().Depth+1 {
						t.Errorf("%s %v: worker %d has %d version arrays (%d before the measured call), want at most depth+1 = %d",
							name, mode, sw.id, w.arrays, arrays[sw.id], p.Plan().Depth+1)
					}
					if live := w.arrays - len(w.free); len(w.listed) != 1 || live != 1 || w.bound != w.latest() {
						t.Errorf("%s %v: worker %d ends the call with %d listed versions and %d live arrays", name, mode, sw.id, len(w.listed), live)
					}
					if flat, ok := tensor.Flat(sw.model.Params()); !ok || &flat[0] != &w.latest().data[0] {
						t.Errorf("%s %v: worker %d's parameters are not views of the latest version's array", name, mode, sw.id)
					}
					if flat, ok := tensor.Flat(sw.model.Grads()); !ok || &flat[0] != &sw.gradArena[0] {
						t.Errorf("%s %v: worker %d's gradients are not views of its gradient arena", name, mode, sw.id)
					}
				}
				if perMB := (ms1.TotalAlloc - ms0.TotalAlloc) / perCall; perMB > 16<<10 && !raceEnabled {
					t.Errorf("%s %v: a minibatch allocates %d B on the heap; one stage's weights are 64 KB", name, mode, perMB)
				}
				p.Close()
				tcp.Close()
			}
			for _, e := range probeErrors {
				t.Errorf("%s: %s", name, e)
			}
			if gets[WeightStashing] != gets[NoStashing] {
				t.Errorf("%s: %d pooled tensors taken with weight stashing, %d without any stashing", name, gets[WeightStashing], gets[NoStashing])
			}
		}
	}
}
