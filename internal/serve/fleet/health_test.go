package fleet

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/serve"
)

// fakeClock is the injectable clock the health cool-down runs on in
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestReplicaHealthWindow pins the sliding-window mechanics: no ejection
// below MinSamples, ejection at the threshold, a clean window after
// re-admission.
func TestReplicaHealthWindow(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	cfg := HealthConfig{MaxErrorRate: 0.5, Window: 8, MinSamples: 4, CoolDown: time.Minute}.withDefaults()
	h := newReplicaHealth(cfg, clock.Now, &metrics.Counter{})

	// Three straight faults: under MinSamples, still available.
	for i := 0; i < 3; i++ {
		h.record(true)
	}
	if !h.available(clock.Now()) {
		t.Fatal("ejected below MinSamples")
	}
	// Fourth fault: 4/4 ≥ 0.5 ejects.
	h.record(true)
	if h.available(clock.Now()) {
		t.Fatal("not ejected at 100% failure rate")
	}
	if n, _ := h.snapshot(clock.Now()); n != 1 {
		t.Fatalf("ejections = %d, want 1", n)
	}
	// Cool-down passes: available again, window fresh — three successes
	// and a fault stay under the rate.
	clock.Advance(2 * time.Minute)
	if !h.available(clock.Now()) {
		t.Fatal("not re-admitted after cool-down")
	}
	h.record(false)
	h.record(false)
	h.record(false)
	h.record(true)
	if !h.available(clock.Now()) {
		t.Fatal("ejected at 25% failure rate with 50% threshold")
	}
	// Mostly-failing traffic trips it again.
	for i := 0; i < 4; i++ {
		h.record(true)
	}
	if h.available(clock.Now()) {
		t.Fatal("not re-ejected")
	}
	if n, _ := h.snapshot(clock.Now()); n != 2 {
		t.Fatalf("ejections = %d, want 2", n)
	}
}

// healthTenant assembles a two-replica tenant by hand: a good replica
// serving the normal test model and an injected failing replica whose
// first layer expects three features — every [n, 2] request panics in
// its kernel and surfaces as serve.ErrInference, the classic sick-
// replica signature.
func healthTenant(t *testing.T, clock *fakeClock) (ten *Tenant, goodID, badID int) {
	t.Helper()
	good, err := serve.NewServer(serve.Config{Model: testModel(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { good.Close() })
	rng := rand.New(rand.NewSource(2))
	bad, err := serve.NewServer(serve.Config{Model: nn.NewSequential(nn.NewDense(rng, "fc1", 3, 3))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bad.Close() })

	reg := metrics.NewRegistry()
	ten = &Tenant{
		name:   "canary",
		router: newRouter(RoundRobin),
		quota:  serve.NewQuota(256, 256),
		met:    newTenantMetrics(reg, "canary"),
		reg:    reg,
		health: HealthConfig{MaxErrorRate: 0.5, Window: 8, MinSamples: 4, CoolDown: time.Minute}.withDefaults(),
		now:    clock.Now,
	}
	goodID, _ = ten.nextReplica()
	badID, _ = ten.nextReplica()
	ten.mu.Lock()
	goodRep := ten.newReplicaLocked(good, goodID)
	badRep := ten.newReplicaLocked(bad, badID)
	ten.mu.Unlock()
	return ten, goodRep.id, badRep.id
}

// replicaStat finds one replica's entry in the tenant summary.
func replicaStat(t *testing.T, ts TenantStats, id int) ReplicaStats {
	t.Helper()
	for _, rs := range ts.Replicas {
		if rs.ID == id {
			return rs
		}
	}
	t.Fatalf("replica %d not in stats", id)
	return ReplicaStats{}
}

// TestHealthEjectsFailingReplica drives mixed traffic at a tenant with
// one injected failing replica: the failing replica must be ejected
// after its window fills with faults, traffic must then flow error-free
// to the healthy peer, and advancing the clock past the cool-down must
// re-admit (and, under continued failure, re-eject) it.
func TestHealthEjectsFailingReplica(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	ten, goodID, badID := healthTenant(t, clock)
	x := testInput(3, 2)

	// Warm-up: round-robin spreads requests across both replicas until
	// the bad one accumulates MinSamples faults and ejects. Failures
	// surface to these callers; that is the cost of detection.
	sawInference := false
	for i := 0; i < 16; i++ {
		if _, err := ten.Infer(x); errors.Is(err, serve.ErrInference) {
			sawInference = true
		} else if err != nil {
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if !sawInference {
		t.Fatal("injected replica never failed a request")
	}
	bs := replicaStat(t, ten.Stats(), badID)
	if !bs.Ejected || bs.Ejections < 1 {
		t.Fatalf("bad replica not ejected after warm-up: %+v", bs)
	}

	// Ejected: every request lands on the good replica and succeeds.
	goodBefore := replicaStat(t, ten.Stats(), goodID).Picks
	for i := 0; i < 20; i++ {
		if _, err := ten.Infer(x); err != nil {
			t.Fatalf("request %d with failing replica ejected: %v", i, err)
		}
	}
	if picks := replicaStat(t, ten.Stats(), goodID).Picks; picks != goodBefore+20 {
		t.Fatalf("good replica took %d of 20 post-ejection requests", picks-goodBefore)
	}

	// Cool-down passes: the replica is re-admitted on probation, keeps
	// failing, and is ejected a second time.
	clock.Advance(2 * time.Minute)
	if replicaStat(t, ten.Stats(), badID).Ejected {
		t.Fatal("bad replica still ejected after cool-down")
	}
	ejBefore := replicaStat(t, ten.Stats(), badID).Ejections
	for i := 0; i < 16; i++ {
		ten.Infer(x) // errors expected while probation traffic probes it
	}
	bs = replicaStat(t, ten.Stats(), badID)
	if !bs.Ejected || bs.Ejections != ejBefore+1 {
		t.Fatalf("bad replica not re-ejected after probation: %+v", bs)
	}
}

// TestHealthAllEjectedFallsBack: when every replica is ejected the
// tenant keeps routing over the full live set — a degraded tenant
// returns errors, never ErrNoReplicas.
func TestHealthAllEjectedFallsBack(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rng := rand.New(rand.NewSource(3))
	bad, err := serve.NewServer(serve.Config{Model: nn.NewSequential(nn.NewDense(rng, "fc1", 3, 3))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bad.Close() })
	reg := metrics.NewRegistry()
	ten := &Tenant{
		name:   "sick",
		router: newRouter(RoundRobin),
		quota:  serve.NewQuota(256, 256),
		met:    newTenantMetrics(reg, "sick"),
		reg:    reg,
		health: HealthConfig{MaxErrorRate: 0.5, Window: 4, MinSamples: 2, CoolDown: time.Minute}.withDefaults(),
		now:    clock.Now,
	}
	id, _ := ten.nextReplica()
	ten.mu.Lock()
	rep := ten.newReplicaLocked(bad, id)
	ten.mu.Unlock()
	x := testInput(3, 2)
	for i := 0; i < 8; i++ {
		if _, err := ten.Infer(x); !errors.Is(err, serve.ErrInference) {
			t.Fatalf("request %d: err = %v, want ErrInference (never ErrNoReplicas)", i, err)
		}
	}
	if n, _ := rep.health.snapshot(clock.Now()); n < 1 {
		t.Fatal("sole replica was never ejected")
	}
}
