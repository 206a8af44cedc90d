// Package fleet scales the forward-only serving runtime out: N
// data-parallel replicas of each served model behind a routing policy,
// and several models (tenants) served from one process over one shared
// transport.
//
// The building block is unchanged — each replica is a full
// serve.Server pipelining requests through its own stage slice — fleet
// adds the layers PipeDream adds for training throughput, applied to
// serving:
//
//   - Replication. A tenant runs Config.Replicas identical pipelines;
//     a router (round-robin, least-in-flight, or shape-affinity)
//     spreads requests across them. Replicas can be added and removed
//     live: removal drains — the replica leaves the routing set, its
//     in-flight requests complete, then it closes — so rescaling never
//     fails a request.
//   - Tenancy. Each tenant has its own model, weight-generation
//     lineage (per-replica checkpoint followers over one shared
//     directory), and admission quota (serve.Quota shared by its
//     replicas), so one tenant's overload sheds that tenant's traffic
//     with ErrOverloaded while every other tenant's latency is
//     untouched.
//   - One transport. All replicas of all tenants share a single
//     transport (each server sees its own endpoint window through an
//     offset adapter), mirroring how a multi-tenant deployment shares
//     one interconnect.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/serve"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// Typed sentinel errors returned by fleet routing. Match with
// errors.Is; admission and pipeline errors from the picked replica
// (serve.ErrOverloaded, serve.ErrBadRequest, ...) pass through
// unchanged.
var (
	// ErrUnknownTenant is returned when a request names a tenant the
	// fleet does not serve.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")

	// ErrNoReplicas is returned when a tenant's routing set is empty —
	// every replica was removed and none added back.
	ErrNoReplicas = errors.New("fleet: no live replicas")
)

// Config configures the fleet-wide knobs; per-model knobs live in
// TenantConfig.
type Config struct {
	// Replicas is the number of data-parallel pipelines per tenant
	// (default 1). Every tenant starts with the same count; rescale per
	// tenant afterwards with AddReplica/RemoveReplica.
	Replicas int
	// Policy selects the routing policy (default RoundRobin).
	Policy Policy
	// Metrics, when non-nil, receives serve.fleet.* instrumentation:
	// per-tenant request/response/shed counters, and under
	// serve.fleet.<tenant>.r<id>. each replica's pick counter, in-flight
	// gauge and its server's serve.* instruments (requests, latency_us,
	// s<i>.forward_us, …).
	Metrics *metrics.Registry
	// Health, when MaxErrorRate > 0, turns on router-level health
	// checks for every tenant: replicas whose sliding-window failure
	// rate crosses the threshold are ejected from the routing set and
	// re-admitted after a cool-down. See HealthConfig.
	Health HealthConfig
}

// TenantConfig declares one served model.
type TenantConfig struct {
	// Name addresses the tenant in Fleet.Infer and the HTTP API.
	// Required, unique within the fleet.
	Name string
	// Server is the replica template: Model, Plan, MaxBatch,
	// BatchTimeout, QueueCap, InputShape, WeightGeneration and the rest
	// apply to every replica of this tenant. Transport, Quota, and
	// Metrics are owned by the fleet and must be left nil; the fleet
	// sets each replica's MetricsPrefix.
	Server serve.Config
	// MaxQueued bounds the tenant's waiting requests across all its
	// replicas (quota queue slots). Default: Replicas × the template's
	// (defaulted) QueueCap.
	MaxQueued int
	// MaxInFlight bounds the tenant's dispatched-but-unanswered
	// requests across all its replicas (quota in-flight slots).
	// Default: Replicas × the template's (defaulted) MaxInFlight.
	MaxInFlight int
}

// Fleet is a running multi-tenant replicated serving deployment.
// Create with New, submit with Infer (or through a Tenant), stop with
// Close.
type Fleet struct {
	tenants map[string]*Tenant
	order   []string // tenant names in declaration order, for stable Stats
	policy  Policy
	shared  transport.Transport
}

// Stats is a point-in-time summary of the whole fleet, one entry per
// tenant in declaration order.
type Stats struct {
	// Policy is the fleet's routing policy.
	Policy Policy
	// Tenants holds one summary per tenant.
	Tenants []TenantStats
}

// TenantStats summarizes one tenant: fleet-level routing counters,
// quota occupancy, and the live replicas.
type TenantStats struct {
	// Name is the tenant's routing key.
	Name string
	// Requests counts routed Infer calls; Responses the successes;
	// Errors the failures other than quota sheds; Shed the quota sheds;
	// Retries the re-picks after a drained replica closed mid-flight.
	Requests, Responses, Errors, Shed, Retries int64
	// Queued and InFlight are the tenant quota's current occupancy;
	// MaxQueued and MaxInFlight its bounds.
	Queued, InFlight, MaxQueued, MaxInFlight int
	// WeightGeneration is the oldest generation among live replicas —
	// the floor every response is at least as new as.
	WeightGeneration int
	// Replicas holds one entry per live replica, in routing order.
	Replicas []ReplicaStats
}

// ReplicaStats summarizes one live replica of one tenant.
type ReplicaStats struct {
	// ID is the replica's stable id within its tenant.
	ID int
	// InFlight is the number of requests currently routed to this
	// replica and not yet answered.
	InFlight int64
	// Picks counts how many requests the router sent here.
	Picks int64
	// Ejections counts how many times health checks ejected this
	// replica; Ejected reports whether it is sitting out right now.
	// Both stay zero with health checks disabled.
	Ejections int64
	Ejected   bool
	// Serve is the replica server's own summary (batching factor,
	// latency quantiles, weight generation, ...).
	Serve serve.Stats
}

// New builds and starts a fleet: cfg.Replicas servers per tenant, all
// over one shared in-process transport, each tenant behind its own
// admission quota. The fleet is ready for Infer when New returns; on
// error, every server already started is closed.
func New(cfg Config, tenants ...TenantConfig) (*Fleet, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("fleet: at least one tenant is required")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("fleet: Replicas = %d", cfg.Replicas)
	}
	policy, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}

	// One shared transport for every replica of every tenant: size it
	// for the sum of the endpoint windows (stages+1 per replica) and
	// the largest per-server buffer requirement.
	total, buffer := 0, 0
	for _, tc := range tenants {
		stages := stageCount(tc.Server)
		total += cfg.Replicas * (stages + 1)
		// DAG plans can deliver up to MaxDegree messages per batch to a
		// fan-in stage; size the shared buffer the way serve does for its
		// owned transport.
		deg := 1
		if tc.Server.Plan != nil {
			if err := tc.Server.Plan.Graph.Validate(stages); err != nil {
				return nil, fmt.Errorf("fleet: tenant %q: %w", tc.Name, err)
			}
			deg = tc.Server.Plan.Graph.MaxDegree()
		}
		if b := deg * (effMaxInFlight(tc.Server, stages) + 4); b > buffer {
			buffer = b
		}
	}
	shared := transport.NewChannels(total, buffer)

	f := &Fleet{tenants: make(map[string]*Tenant, len(tenants)), policy: policy, shared: shared}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry() // instruments stay live for Stats
	}
	base := 0
	for _, tc := range tenants {
		if tc.Name == "" {
			f.Close()
			return nil, fmt.Errorf("fleet: tenant name is required")
		}
		if _, dup := f.tenants[tc.Name]; dup {
			f.Close()
			return nil, fmt.Errorf("fleet: duplicate tenant %q", tc.Name)
		}
		if tc.Server.Transport != nil || tc.Server.Quota != nil || tc.Server.Metrics != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: tenant %q: Transport, Quota, and Metrics are fleet-owned; leave them nil", tc.Name)
		}
		stages := stageCount(tc.Server)
		t := &Tenant{
			name:      tc.Name,
			router:    newRouter(policy),
			quota:     serve.NewQuota(quotaBounds(tc, cfg.Replicas, stages)),
			met:       newTenantMetrics(reg, tc.Name),
			reg:       reg,
			health:    cfg.Health.withDefaults(),
			now:       time.Now,
			template:  tc.Server,
			followers: make(map[int]*serve.Follower),
		}
		for r := 0; r < cfg.Replicas; r++ {
			id, scfg := t.nextReplica()
			scfg.Transport = &offsetTransport{tr: shared, base: base}
			srv, err := serve.NewServer(scfg)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("fleet: tenant %q replica %d: %w", tc.Name, r, err)
			}
			t.mu.Lock()
			t.newReplicaLocked(srv, id)
			t.mu.Unlock()
			base += stages + 1
		}
		f.tenants[tc.Name] = t
		f.order = append(f.order, tc.Name)
	}
	return f, nil
}

// stageCount is the number of pipeline stages the template config will
// run — the plan's stage count, or one when unpartitioned.
func stageCount(cfg serve.Config) int {
	if cfg.Plan == nil || len(cfg.Plan.Stages) == 0 {
		return 1
	}
	return len(cfg.Plan.Stages)
}

// effMaxInFlight resolves the template's in-flight bound the same way
// serve.NewServer does (2×stages when unset).
func effMaxInFlight(cfg serve.Config, stages int) int {
	if cfg.MaxInFlight > 0 {
		return cfg.MaxInFlight
	}
	return 2 * stages
}

// quotaBounds resolves a tenant's admission bounds: explicit values
// win; defaults scale the per-server bounds by the replica count, so a
// default fleet admits exactly what its replicas can hold.
func quotaBounds(tc TenantConfig, replicas, stages int) (maxQueued, maxInFlight int) {
	maxQueued = tc.MaxQueued
	if maxQueued == 0 {
		qc := tc.Server.QueueCap
		if qc == 0 {
			qc = serve.DefaultQueueCap
		}
		maxQueued = replicas * qc
	}
	maxInFlight = tc.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = replicas * serveBatchWindow(tc.Server, stages)
	}
	return maxQueued, maxInFlight
}

// serveBatchWindow is how many requests one replica can reasonably hold
// in flight: its batch window (MaxInFlight batches × MaxBatch rows
// ≥ requests, but requests are what the quota counts, so use batches ×
// MaxBatch as the request ceiling).
func serveBatchWindow(cfg serve.Config, stages int) int {
	mb := cfg.MaxBatch
	if mb == 0 {
		mb = serve.DefaultMaxBatch
	}
	return effMaxInFlight(cfg, stages) * mb
}

// newTenantMetrics builds a tenant's instruments from the fleet
// registry.
func newTenantMetrics(reg *metrics.Registry, name string) *tenantMetrics {
	prefix := "serve.fleet." + name + "."
	return &tenantMetrics{
		requests:  reg.Counter(prefix + "requests"),
		responses: reg.Counter(prefix + "responses"),
		errors:    reg.Counter(prefix + "errors"),
		shed:      reg.Counter(prefix + "shed"),
		retries:   reg.Counter(prefix + "retries"),
	}
}

// Tenant returns the named tenant, or ErrUnknownTenant.
func (f *Fleet) Tenant(name string) (*Tenant, error) {
	t, ok := f.tenants[name]
	if !ok {
		return nil, fmt.Errorf("fleet: tenant %q: %w", name, ErrUnknownTenant)
	}
	return t, nil
}

// Tenants returns the tenant names in declaration order.
func (f *Fleet) Tenants() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Infer routes one request to a replica of the named tenant and blocks
// until its result is ready.
func (f *Fleet) Infer(tenant string, x *tensor.Tensor) (*tensor.Tensor, error) {
	y, _, err := f.InferVersioned(tenant, x)
	return y, err
}

// InferVersioned is Infer plus the weight generation the request was
// served with (see Tenant.InferVersioned).
func (f *Fleet) InferVersioned(tenant string, x *tensor.Tensor) (*tensor.Tensor, int, error) {
	t, err := f.Tenant(tenant)
	if err != nil {
		return nil, 0, err
	}
	return t.InferVersioned(x)
}

// InferHead routes one request to a replica of the named tenant and
// runs it through only the stages the given head depends on (see
// Tenant.InferHead).
func (f *Fleet) InferHead(tenant string, x *tensor.Tensor, head int) (*tensor.Tensor, error) {
	t, err := f.Tenant(tenant)
	if err != nil {
		return nil, err
	}
	return t.InferHead(x, head)
}

// Stats returns a point-in-time summary of every tenant, in declaration
// order.
func (f *Fleet) Stats() Stats {
	s := Stats{Policy: f.policy}
	for _, name := range f.order {
		s.Tenants = append(s.Tenants, f.tenants[name].Stats())
	}
	return s
}

// Close stops every tenant (followers first, then replica servers) and
// finally the shared transport, which no server closes because each
// sees it through a non-owning adapter. Safe to call more than once.
func (f *Fleet) Close() error {
	for _, name := range f.order {
		f.tenants[name].close()
	}
	// Tenants added to the map but not yet to order (mid-construction
	// failure) still need closing.
	for _, t := range f.tenants {
		t.close()
	}
	return f.shared.Close()
}

// offsetTransport exposes a contiguous endpoint window [base,
// base+stages] of a larger shared transport as endpoints [0, stages] —
// what lets every replica of every tenant run over one transport while
// serve.Server keeps its own zero-based endpoint numbering. Close is a
// no-op: the window does not own the underlying transport; Fleet.Close
// closes it once, after every server has stopped.
type offsetTransport struct {
	tr   transport.Transport
	base int
}

// Send delivers to endpoint to within this window.
func (o *offsetTransport) Send(to int, m transport.Message) error {
	return o.tr.Send(o.base+to, m)
}

// Inbox returns the receive channel for endpoint w within this window.
func (o *offsetTransport) Inbox(w int) <-chan transport.Message {
	return o.tr.Inbox(o.base + w)
}

// Close is a no-op; the shared transport is closed once by Fleet.Close.
func (o *offsetTransport) Close() error { return nil }
