package fleet

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/serve"
	"pipedream/internal/tensor"
)

// testModel builds a small deterministic MLP: 2 → 16 → 3, the same
// architecture the serve package's tests use.
func testModel(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		nn.NewDense(rng, "fc1", 2, 16),
		nn.NewTanh("t1"),
		nn.NewDense(rng, "fc2", 16, 16),
		nn.NewTanh("t2"),
		nn.NewDense(rng, "fc3", 16, 3),
	)
}

// modelFor builds the test model with weights distinguishable by
// checkpoint generation.
func modelFor(gen int) *nn.Sequential {
	m := testModel(1)
	m.Params()[0].Data[0] = 0.5 + float32(gen)*0.25
	return m
}

// testInput builds a deterministic [rows, 2] input.
func testInput(seed int64, rows int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandUniform(rng, -1, 1, rows, 2)
}

// plan2 splits the 5-layer test model into two stages.
func plan2() *partition.Plan {
	return &partition.Plan{Stages: []partition.StageSpec{
		{FirstLayer: 0, LastLayer: 2, Replicas: 1},
		{FirstLayer: 3, LastLayer: 4, Replicas: 1},
	}, Graph: partition.NewLinear(2)}
}

// slowLayer is an identity layer that sleeps — it stands in for a
// device-bound stage so tests can hold requests in flight.
type slowLayer struct{ delay time.Duration }

func (l *slowLayer) Name() string { return "slow" }
func (l *slowLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	time.Sleep(l.delay)
	return x, nil
}
func (l *slowLayer) Backward(ctx nn.Context, g *tensor.Tensor) *tensor.Tensor { return g }
func (l *slowLayer) Params() []*tensor.Tensor                                 { return nil }
func (l *slowLayer) Grads() []*tensor.Tensor                                  { return nil }

// slowTestModel prefixes the deterministic MLP with an identity sleep
// layer: outputs equal testModel(seed)'s, but every request holds a
// pipeline for at least delay.
func slowTestModel(seed int64, delay time.Duration) *nn.Sequential {
	layers := append([]nn.Layer{&slowLayer{delay: delay}}, testModel(seed).Layers...)
	return nn.NewSequential(layers...)
}

// writeGen writes a complete single-stage checkpoint generation —
// LoadModel is plan-independent, so replicas re-slice it onto their own
// plans.
func writeGen(t *testing.T, dir string, gen int, model *nn.Sequential) {
	t.Helper()
	gdir := filepath.Join(dir, checkpoint.DirName(gen))
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		t.Fatal(err)
	}
	shard := &checkpoint.StageShard{Generation: gen, Params: model.Params()}
	if err := checkpoint.WriteShard(filepath.Join(gdir, checkpoint.StageFileName(0, 0)), shard); err != nil {
		t.Fatal(err)
	}
	man := &checkpoint.Manifest{Generation: gen, Cursor: gen, Stages: 1, Replicas: []int{1}}
	if err := checkpoint.WriteManifest(gdir, man); err != nil {
		t.Fatal(err)
	}
}

func mustFleet(t *testing.T, cfg Config, tenants ...TenantConfig) *Fleet {
	t.Helper()
	f, err := New(cfg, tenants...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func wantEqual(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if got == nil {
		t.Fatal("nil result")
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("result has %d values, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("result[%d] = %v, want %v (bit-exact)", i, got.Data[i], want.Data[i])
		}
	}
}

// TestFleetMultiTenantBitExact: two tenants with different models and
// plans, two replicas each, in one fleet — every response
// is bit-identical to the right tenant's reference forward pass,
// whichever replica served it.
func TestFleetMultiTenantBitExact(t *testing.T) {
	f := mustFleet(t, Config{Replicas: 2, Policy: RoundRobin},
		TenantConfig{Name: "alpha", Server: serve.Config{
			Model: testModel(1), Plan: plan2(), MaxBatch: 8, BatchTimeout: time.Millisecond}},
		TenantConfig{Name: "beta", Server: serve.Config{
			Model: testModel(2), MaxBatch: 4, BatchTimeout: time.Millisecond}},
	)
	refA, refB := testModel(1), testModel(2)

	const perTenant = 30
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	run := func(tenant string, ref *nn.Sequential, seedBase int64) {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				x := testInput(seedBase+int64(i), 1+i%4)
				want, _ := ref.Forward(x, false)
				y, err := f.Infer(tenant, x)
				if err != nil {
					errs <- err
					return
				}
				wantEqual(t, y, want)
			}(i)
		}
	}
	run("alpha", refA, 100)
	run("beta", refB, 900)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed: %v", err)
	}

	// Both replicas of each tenant saw traffic (round-robin spreads).
	for _, ts := range f.Stats().Tenants {
		if len(ts.Replicas) != 2 {
			t.Fatalf("tenant %s has %d replicas, want 2", ts.Name, len(ts.Replicas))
		}
		for _, rs := range ts.Replicas {
			if rs.Picks == 0 {
				t.Errorf("tenant %s replica %d was never picked", ts.Name, rs.ID)
			}
		}
		if ts.Responses != perTenant {
			t.Errorf("tenant %s responses = %d, want %d", ts.Name, ts.Responses, perTenant)
		}
	}

	if _, _, err := f.InferVersioned("gamma", testInput(1, 1)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v, want ErrUnknownTenant", err)
	}
}

// TestFleetValidation pins New's config rejections.
func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no tenants succeeded")
	}
	mk := func() TenantConfig {
		return TenantConfig{Name: "a", Server: serve.Config{Model: testModel(1)}}
	}
	if _, err := New(Config{}, mk(), mk()); err == nil {
		t.Error("duplicate tenant names accepted")
	}
	anon := mk()
	anon.Name = ""
	if _, err := New(Config{}, anon); err == nil {
		t.Error("empty tenant name accepted")
	}
	owned := mk()
	owned.Server.Quota = serve.NewQuota(1, 1)
	if _, err := New(Config{}, owned); err == nil {
		t.Error("caller-supplied Quota accepted; it is fleet-owned")
	}
	if _, err := New(Config{Policy: "fastest"}, mk()); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{Replicas: -1}, mk()); err == nil {
		t.Error("negative replica count accepted")
	}
}

// TestFleetSaturationFairness is the tenancy-isolation guarantee:
// tenant "greedy" floods at many times its admission quota while tenant
// "steady" trickles sequential requests — greedy sheds with
// ErrOverloaded, steady completes every request with zero errors.
func TestFleetSaturationFairness(t *testing.T) {
	f := mustFleet(t, Config{Replicas: 1, Policy: LeastInFlight},
		TenantConfig{
			Name: "greedy",
			Server: serve.Config{
				Model:    slowTestModel(1, 5*time.Millisecond),
				MaxBatch: 1, BatchTimeout: time.Millisecond, QueueCap: 64,
			},
			MaxQueued: 2, MaxInFlight: 1,
		},
		TenantConfig{Name: "steady", Server: serve.Config{
			Model: testModel(2), MaxBatch: 8, BatchTimeout: time.Millisecond}},
	)
	refSteady := testModel(2)

	// Flood greedy from 10x more workers than its whole budget.
	stop := make(chan struct{})
	var flood sync.WaitGroup
	for w := 0; w < 30; w++ {
		flood.Add(1)
		go func(w int) {
			defer flood.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := f.Infer("greedy", testInput(int64(w*1000+i), 1))
				if err != nil && !errors.Is(err, serve.ErrOverloaded) {
					t.Errorf("greedy request failed with non-overload error: %v", err)
					return
				}
			}
		}(w)
	}

	// Steady tenant runs sequentially through the flood.
	const steadyRequests = 40
	for i := 0; i < steadyRequests; i++ {
		x := testInput(int64(5000+i), 1)
		want, _ := refSteady.Forward(x, false)
		y, err := f.Infer("steady", x)
		if err != nil {
			t.Fatalf("steady request %d failed during greedy flood: %v", i, err)
		}
		wantEqual(t, y, want)
	}
	close(stop)
	flood.Wait()

	var greedy, steady TenantStats
	for _, ts := range f.Stats().Tenants {
		switch ts.Name {
		case "greedy":
			greedy = ts
		case "steady":
			steady = ts
		}
	}
	if greedy.Shed == 0 {
		t.Error("greedy tenant never shed; the flood did not exceed its quota")
	}
	if steady.Errors != 0 || steady.Shed != 0 {
		t.Errorf("steady tenant errors=%d shed=%d, want 0/0", steady.Errors, steady.Shed)
	}
	if steady.Responses != steadyRequests {
		t.Errorf("steady responses = %d, want %d", steady.Responses, steadyRequests)
	}
}

// TestFleetRescale: removing the last replica turns submits into
// ErrNoReplicas; adding one back restores service, with replica ids
// never reused.
func TestFleetRescale(t *testing.T) {
	f := mustFleet(t, Config{Replicas: 1},
		TenantConfig{Name: "m", Server: serve.Config{
			Model: testModel(1), MaxBatch: 4, BatchTimeout: time.Millisecond}})
	ten, err := f.Tenant("m")
	if err != nil {
		t.Fatal(err)
	}
	ids := ten.Replicas()
	if len(ids) != 1 {
		t.Fatalf("replicas = %v, want one", ids)
	}
	if err := ten.RemoveReplica(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := ten.RemoveReplica(ids[0]); err == nil {
		t.Error("removing an already-removed replica succeeded")
	}
	if _, err := f.Infer("m", testInput(1, 1)); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("infer with no replicas = %v, want ErrNoReplicas", err)
	}
	id, err := ten.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	if id == ids[0] {
		t.Errorf("replica id %d was reused", id)
	}
	x := testInput(2, 2)
	want, _ := testModel(1).Forward(x, false)
	y, err := f.Infer("m", x)
	if err != nil {
		t.Fatal(err)
	}
	wantEqual(t, y, want)
}
