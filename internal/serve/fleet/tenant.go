package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/serve"
	"pipedream/internal/tensor"
)

// replica is one data-parallel serving pipeline of one tenant: a full
// serve.Server over its own stage slice, plus the routing state the
// fleet keeps about it.
type replica struct {
	id       int
	srv      *serve.Server
	inflight *metrics.Gauge   // serve.fleet.<tenant>.r<id>.inflight
	picks    *metrics.Counter // serve.fleet.<tenant>.r<id>.picks
	health   *replicaHealth   // nil when health checks are disabled
}

// tenantMetrics are one tenant's fleet-level instruments — routing and
// admission, not pipeline internals (each replica's serve.Stats carries
// those). A fleet given no registry keeps them in a private one, same
// convention as serve's.
type tenantMetrics struct {
	requests  *metrics.Counter // serve.fleet.<tenant>.requests
	responses *metrics.Counter // serve.fleet.<tenant>.responses
	errors    *metrics.Counter // serve.fleet.<tenant>.errors
	shed      *metrics.Counter // serve.fleet.<tenant>.shed
	retries   *metrics.Counter // serve.fleet.<tenant>.retries: re-picks after a drained replica closed mid-flight
	swaps     *metrics.Counter // serve.fleet.<tenant>.swaps: generations SwapModel installed
}

// Tenant is one served model inside a fleet: a set of data-parallel
// replicas behind the fleet's routing policy, one shared admission
// quota, one weight lineage — the newest (model, generation), which
// every live replica serves to new requests — and (optionally) one
// checkpoint follower that advances it. Obtain with Fleet.Tenant; submit
// through it directly or through the fleet's name-addressed Infer.
type Tenant struct {
	name   string
	router router
	quota  *serve.Quota
	met    *tenantMetrics
	reg    *metrics.Registry // fleet registry (a private one if none), for per-replica instruments
	health HealthConfig      // resolved; zero when health checks are off
	now    func() time.Time  // injectable clock for the health cool-down

	mu sync.RWMutex
	// template is the replica config; its Model and WeightGeneration are
	// the tenant's newest (model, gen), which SwapModel advances. Each
	// replica adds its Quota, Metrics and MetricsPrefix.
	template serve.Config
	live     []*replica
	nextID   int
	follower *serve.Follower // nil until Follow
	closed   bool
}

// Name returns the tenant's name — the routing key clients address it
// by.
func (t *Tenant) Name() string { return t.name }

// Quota returns the tenant's shared admission budget.
func (t *Tenant) Quota() *serve.Quota { return t.quota }

// Replicas returns the ids of the tenant's live replicas, in routing
// order.
func (t *Tenant) Replicas() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := make([]int, len(t.live))
	for i, rep := range t.live {
		ids[i] = rep.id
	}
	return ids
}

// Infer routes one request to a replica and blocks until its result is
// ready — serve.Server.Infer semantics (bit-identical to an unbatched
// forward pass, row order preserved) behind the fleet's routing policy.
func (t *Tenant) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, _, err := t.InferVersioned(x)
	return y, err
}

// InferVersioned is Infer plus the weight generation the request was
// served with. The one-generation-per-request guarantee holds per
// replica: whichever replica the router picked, every row of the
// request ran every stage on exactly the stamped generation's weights.
func (t *Tenant) InferVersioned(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	return t.infer(x, -1)
}

// InferHead routes one request to a replica and runs it through only
// the stages the given head depends on — serve.Server.InferHead behind
// the fleet's routing policy. head must be a sink of the tenant's stage
// graph (serve.Server.Heads).
func (t *Tenant) InferHead(x *tensor.Tensor, head int) (*tensor.Tensor, error) {
	y, _, err := t.InferHeadVersioned(x, head)
	return y, err
}

// InferHeadVersioned is InferHead plus the weight generation the
// request was served with.
func (t *Tenant) InferHeadVersioned(x *tensor.Tensor, head int) (*tensor.Tensor, int, error) {
	if head < 0 {
		return nil, 0, fmt.Errorf("fleet: head %d: %w", head, serve.ErrBadRequest)
	}
	return t.infer(x, head)
}

// infer is the shared routing loop; head < 0 targets each replica's
// default head. Every outcome lands in the picked replica's health
// window (when health checks are on), so a replica that keeps failing
// requests is ejected from the routing set until its cool-down passes.
func (t *Tenant) infer(x *tensor.Tensor, head int) (*tensor.Tensor, int, error) {
	if x == nil || x.NumDims() < 1 {
		return nil, 0, fmt.Errorf("fleet: request needs at least one row: %w", serve.ErrBadRequest)
	}
	t.met.requests.Inc()
	key := shapeKey(x.Shape[1:])
	for attempt := 0; ; attempt++ {
		rep, err := t.pick(key)
		if err != nil {
			t.met.errors.Inc()
			return nil, 0, err
		}
		var y *tensor.Tensor
		var gen int
		if head < 0 {
			y, gen, err = rep.srv.InferVersioned(x)
		} else {
			y, gen, err = rep.srv.InferHeadVersioned(x, head)
		}
		rep.inflight.Add(-1)
		if rep.health != nil {
			rep.health.record(replicaFault(err))
		}
		if err == nil {
			t.met.responses.Inc()
			return y, gen, nil
		}
		// A replica that closed between pick and submit was being
		// drained; the live set has already moved on, so re-pick.
		// Bounded: each retry means one fewer replica to land on.
		if errors.Is(err, serve.ErrServerClosed) && attempt < maxRouteRetries {
			t.met.retries.Inc()
			continue
		}
		if errors.Is(err, serve.ErrOverloaded) {
			t.met.shed.Inc()
		} else {
			t.met.errors.Inc()
		}
		return nil, 0, err
	}
}

// maxRouteRetries bounds re-picks after landing on a replica that
// closed mid-flight. Drains make this path near-impossible (the router
// stops picking a replica before it closes), so a small bound only
// guards a caller racing Fleet.Close.
const maxRouteRetries = 4

// pick chooses a live replica under the read lock and counts the
// request onto it. The in-flight increment happens under the same lock,
// so RemoveReplica's write-lock acquisition is the barrier after which
// the replica's in-flight count can only fall. With health checks on,
// the routing set shrinks to the replicas not currently ejected —
// unless that empties it, in which case every live replica stays a
// candidate (degraded beats unavailable).
func (t *Tenant) pick(key uint64) (*replica, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.live) == 0 {
		return nil, fmt.Errorf("fleet: tenant %q: %w", t.name, ErrNoReplicas)
	}
	candidates := t.live
	if t.health.enabled() {
		now := t.now()
		healthy := make([]*replica, 0, len(t.live))
		for _, rep := range t.live {
			if rep.health.available(now) {
				healthy = append(healthy, rep)
			}
		}
		if len(healthy) > 0 {
			candidates = healthy
		}
	}
	rep := t.router.pick(candidates, key)
	rep.inflight.Add(1)
	rep.picks.Inc()
	return rep, nil
}

// AddReplica builds one more replica from the tenant's newest model and
// generation (a transport of its own, the shared quota), adds it to the
// routing set, and returns its id.
func (t *Tenant) AddReplica() (int, error) {
	id, cfg := t.nextReplica()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return 0, fmt.Errorf("fleet: tenant %q: add replica: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		srv.Close()
		return 0, fmt.Errorf("fleet: tenant %q: %w", t.name, serve.ErrServerClosed)
	}
	// A swap that landed while NewServer ran reached only the live
	// replicas; catch the new one up before it can take a request.
	if t.template.WeightGeneration > cfg.WeightGeneration {
		if err := srv.SwapModel(t.template.Model, t.template.WeightGeneration); err != nil {
			srv.Close()
			return 0, fmt.Errorf("fleet: tenant %q: add replica: %w", t.name, err)
		}
	}
	return t.newReplicaLocked(srv, id).id, nil
}

// nextReplica takes the next replica id (one whose server fails to
// build is skipped) and returns it with the replica's config: the
// template at the tenant's newest generation, the tenant's quota, and
// the fleet's registry under the replica's prefix.
func (t *Tenant) nextReplica() (int, serve.Config) {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	cfg := t.template
	t.mu.Unlock()
	cfg.Quota = t.quota
	cfg.Metrics = t.reg
	cfg.MetricsPrefix = replicaPrefix(t.name, id)
	return id, cfg
}

// replicaPrefix starts the name of every instrument of one replica.
func replicaPrefix(tenant string, id int) string {
	return fmt.Sprintf("serve.fleet.%s.r%d.", tenant, id)
}

// newReplicaLocked wraps srv as replica id and appends it to the live
// set. Callers hold the write lock.
func (t *Tenant) newReplicaLocked(srv *serve.Server, id int) *replica {
	prefix := replicaPrefix(t.name, id)
	rep := &replica{id: id, srv: srv, inflight: t.reg.Gauge(prefix + "inflight"), picks: t.reg.Counter(prefix + "picks")}
	ejections := t.reg.Counter(prefix + "ejections")
	if t.health.enabled() {
		rep.health = newReplicaHealth(t.health, t.now, ejections)
	}
	t.live = append(t.live, rep)
	return rep
}

// RemoveReplica drains and closes one replica with zero failed
// requests: it first removes the replica from the routing set (after
// which no request can be routed to it), then waits for every request
// already counted onto it to complete, and only then closes its
// server. The last replica can be removed; submits then fail with
// ErrNoReplicas until AddReplica.
func (t *Tenant) RemoveReplica(id int) error {
	t.mu.Lock()
	idx := -1
	for i, rep := range t.live {
		if rep.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.mu.Unlock()
		return fmt.Errorf("fleet: tenant %q has no replica %d", t.name, id)
	}
	rep := t.live[idx]
	t.live = append(t.live[:idx:idx], t.live[idx+1:]...)
	t.mu.Unlock()

	// Acquiring the write lock above was the barrier: every request
	// bound for this replica had already incremented its in-flight
	// count under the read lock, and no new one can. The count only
	// falls from here, and the server is still open, so every counted
	// request completes normally.
	for rep.inflight.Value() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	rep.srv.Close()
	return nil
}

// Follow starts the tenant's checkpoint follower: one poll loop over
// cfg.Dir that loads each new complete generation once and installs it
// on every replica through SwapModel. A tenant runs at most one.
func (t *Tenant) Follow(cfg serve.FollowConfig) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("fleet: tenant %q: %w", t.name, serve.ErrServerClosed)
	}
	if t.follower != nil {
		return fmt.Errorf("fleet: tenant %q is already following a checkpoint directory", t.name)
	}
	f, err := serve.Follow(t, cfg)
	if err != nil {
		return fmt.Errorf("fleet: tenant %q: %w", t.name, err)
	}
	t.follower = f
	return nil
}

// SwapModel installs model as generation gen on every live replica and
// makes it the tenant's newest, which later replicas are built from. gen
// must advance past the tenant's generation (serve.ErrStaleGeneration
// otherwise). Once SwapModel returns, every request routed to any
// replica is served with gen or newer; requests already inside a
// replica finish on the generation they were stamped with. The caller
// must not mutate the model's parameters after handing it over.
func (t *Tenant) SwapModel(model *nn.Sequential, gen int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur := t.template.WeightGeneration; gen <= cur {
		return fmt.Errorf("fleet: tenant %q: swap to generation %d, already serving %d: %w",
			t.name, gen, cur, serve.ErrStaleGeneration)
	}
	for _, rep := range t.live {
		if err := rep.srv.SwapModel(model, gen); err != nil {
			return fmt.Errorf("fleet: tenant %q: replica %d: %w", t.name, rep.id, err)
		}
	}
	t.template.Model, t.template.WeightGeneration = model, gen
	t.met.swaps.Inc()
	return nil
}

// WeightGeneration returns the tenant's generation: the one every live
// replica serves new requests with. It only moves forward.
func (t *Tenant) WeightGeneration() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.template.WeightGeneration
}

// Stats returns a point-in-time summary of the tenant: aggregated
// routing counters, quota occupancy, and each replica's serve.Stats.
func (t *Tenant) Stats() TenantStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ts := TenantStats{
		Name:             t.name,
		Requests:         t.met.requests.Value(),
		Responses:        t.met.responses.Value(),
		Errors:           t.met.errors.Value(),
		Shed:             t.met.shed.Value(),
		Retries:          t.met.retries.Value(),
		Swaps:            t.met.swaps.Value(),
		WeightGeneration: t.template.WeightGeneration,
		Queued:           t.quota.Queued(),
		InFlight:         t.quota.InFlight(),
		MaxQueued:        t.quota.MaxQueued(),
		MaxInFlight:      t.quota.MaxInFlight(),
	}
	for _, rep := range t.live {
		rs := ReplicaStats{
			ID:       rep.id,
			InFlight: rep.inflight.Value(),
			Picks:    rep.picks.Value(),
			Serve:    rep.srv.Stats(),
		}
		if rep.health != nil {
			rs.Ejections, rs.Ejected = rep.health.snapshot(t.now())
		}
		ts.Replicas = append(ts.Replicas, rs)
	}
	return ts
}

// close tears the tenant down: the follower first (no swaps against
// dying servers), then every replica server. Runs once, from
// Fleet.Close.
func (t *Tenant) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	live, f := t.live, t.follower
	t.live, t.follower = nil, nil
	t.mu.Unlock()
	if f != nil {
		f.Close()
	}
	for _, rep := range live {
		rep.srv.Close()
	}
}
