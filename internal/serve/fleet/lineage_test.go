package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipedream/internal/nn"
	"pipedream/internal/serve"
)

// waitGeneration polls until the tenant reports generation gen.
func waitGeneration(t *testing.T, ten *Tenant, gen int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for ten.WeightGeneration() < gen {
		if time.Now().After(deadline) {
			t.Fatalf("tenant never reached generation %d (at %d)", gen, ten.WeightGeneration())
		}
		time.Sleep(time.Millisecond)
	}
}

// liveReplicas snapshots the tenant's routing set.
func liveReplicas(ten *Tenant) []*replica {
	ten.mu.RLock()
	defer ten.mu.RUnlock()
	return append([]*replica(nil), ten.live...)
}

// TestAddReplicaJoinsAtTheTenantsGeneration: a tenant that followed its
// directory to generation 3 builds an added replica from generation 3, so
// the tenant's generation stays 3 and every answer after AddReplica —
// half of them from the new replica under round-robin — is stamped 3 and
// is generation 3's forward pass.
func TestAddReplicaJoinsAtTheTenantsGeneration(t *testing.T) {
	dir := t.TempDir()
	f := mustFleet(t, Config{Replicas: 1, Policy: RoundRobin},
		TenantConfig{Name: "m", Server: serve.Config{
			Model: modelFor(0), Plan: plan2(), MaxBatch: 8, BatchTimeout: time.Millisecond,
		}})
	ten, err := f.Tenant("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.Follow(serve.FollowConfig{
		Dir:     dir,
		Factory: func() *nn.Sequential { return testModel(1) },
		Poll:    20 * time.Millisecond,
		OnError: func(err error) { t.Errorf("follower error: %v", err) },
	}); err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 3; g++ {
		writeGen(t, dir, g, modelFor(g))
		waitGeneration(t, ten, g)
	}

	if _, err := ten.AddReplica(); err != nil {
		t.Fatal(err)
	}
	if g := ten.WeightGeneration(); g != 3 {
		t.Fatalf("WeightGeneration = %d after AddReplica, want 3", g)
	}
	x := testInput(3, 2)
	want, _ := modelFor(3).Forward(x, false)
	stamped := 0
	for i := 0; i < 20; i++ {
		y, gen, err := ten.InferVersioned(x)
		if err != nil {
			t.Fatal(err)
		}
		if gen == 3 {
			stamped++
			wantEqual(t, y, want)
		}
	}
	if stamped != 20 {
		t.Fatalf("%d of 20 answers after AddReplica stamped generation 3", stamped)
	}
}

// TestOneLoadPerGenerationForEveryReplica: three replicas of one tenant
// follow one directory through two generations, and the model factory —
// one call per checkpoint load — runs once per generation, not once per
// replica per generation; every replica ends on the last one.
func TestOneLoadPerGenerationForEveryReplica(t *testing.T) {
	dir := t.TempDir()
	f := mustFleet(t, Config{Replicas: 3, Policy: RoundRobin},
		TenantConfig{Name: "m", Server: serve.Config{
			Model: modelFor(0), Plan: plan2(), MaxBatch: 8, BatchTimeout: time.Millisecond,
		}})
	ten, err := f.Tenant("m")
	if err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int64
	if err := ten.Follow(serve.FollowConfig{
		Dir:     dir,
		Factory: func() *nn.Sequential { loads.Add(1); return testModel(1) },
		Poll:    2 * time.Millisecond,
		OnError: func(err error) { t.Errorf("follower error: %v", err) },
	}); err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 2; g++ {
		writeGen(t, dir, g, modelFor(g))
		waitGeneration(t, ten, g)
	}
	time.Sleep(30 * time.Millisecond) // more polls, which must load nothing
	if n := loads.Load(); n != 2 {
		t.Fatalf("the factory ran %d times for 2 generations over 3 replicas, want 2", n)
	}
	for _, rs := range ten.Stats().Replicas {
		if rs.Serve.WeightGeneration != 2 {
			t.Errorf("replica %d serves generation %d, want 2", rs.ID, rs.Serve.WeightGeneration)
		}
	}
}

// TestSwapReachesEveryReplicaAndGenerationOnlyAdvances: once
// Tenant.SwapModel(m, g) returns, a request on any live replica is
// stamped g and is m's forward pass; a generation that does not advance
// is refused; and the tenant's generation never decreases while replicas
// come and go, also when swaps race AddReplica and RemoveReplica.
func TestSwapReachesEveryReplicaAndGenerationOnlyAdvances(t *testing.T) {
	f := mustFleet(t, Config{Replicas: 2, Policy: RoundRobin},
		TenantConfig{Name: "m", Server: serve.Config{
			Model: modelFor(0), Plan: plan2(), MaxBatch: 8, BatchTimeout: time.Millisecond,
		}})
	ten, err := f.Tenant("m")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			g, sg := ten.WeightGeneration(), ten.Stats().WeightGeneration
			if g < last || sg < last {
				t.Errorf("tenant generation went back: %d, then %d and %d", last, g, sg)
				return
			}
			last = g
		}
	}()
	x := testInput(11, 3)
	everyReplicaAt := func(g int) {
		t.Helper()
		want, _ := modelFor(g).Forward(x, false)
		for _, rep := range liveReplicas(ten) {
			y, gen, err := rep.srv.InferVersioned(x)
			if err != nil {
				t.Fatal(err)
			}
			if gen != g {
				t.Fatalf("replica %d answered at generation %d, want %d", rep.id, gen, g)
			}
			wantEqual(t, y, want)
		}
	}

	for g := 1; g <= 6; g++ {
		if err := ten.SwapModel(modelFor(g), g); err != nil {
			t.Fatal(err)
		}
		everyReplicaAt(g)
		for _, stale := range []int{g, g - 1} {
			if err := ten.SwapModel(modelFor(stale), stale); !errors.Is(err, serve.ErrStaleGeneration) {
				t.Fatalf("swap to generation %d at %d: err = %v, want ErrStaleGeneration", stale, g, err)
			}
		}
		if g%2 == 1 {
			if _, err := ten.AddReplica(); err != nil {
				t.Fatal(err)
			}
		} else if err := ten.RemoveReplica(liveReplicas(ten)[0].id); err != nil {
			t.Fatal(err)
		}
		everyReplicaAt(g)
	}

	// Swaps racing AddReplica and RemoveReplica: a replica whose server
	// was built while a swap landed is caught up before it joins.
	const last = 40
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for g := 7; g <= last; g++ {
			if err := ten.SwapModel(modelFor(g), g); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if _, err := ten.AddReplica(); err != nil {
			t.Fatal(err)
		}
		if err := ten.RemoveReplica(liveReplicas(ten)[0].id); err != nil {
			t.Fatal(err)
		}
	}
	swapper.Wait()
	close(stop)
	watch.Wait()
	if g := ten.WeightGeneration(); g != last {
		t.Fatalf("WeightGeneration = %d, want %d", g, last)
	}
	everyReplicaAt(last)
	if s := ten.Stats().Swaps; s != last {
		t.Fatalf("Stats().Swaps = %d after %d generations, want %d", s, last, last)
	}
}
