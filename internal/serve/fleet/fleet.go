// Package fleet scales the forward-only serving runtime out: N
// data-parallel replicas of each served model behind a routing policy,
// and several models (tenants) served from one process.
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
//     lineage, and admission quota (serve.Quota shared by its
//     replicas), so one tenant's overload sheds that tenant's traffic
//     with ErrOverloaded while every other tenant's latency is
//     untouched.
//   - One lineage per tenant. The tenant, not each replica, owns the
//     newest (model, generation): one checkpoint follower loads each
//     generation once and Tenant.SwapModel installs it on every replica,
//     as the data-parallel replicas of a training stage share one
//     weight version. Every replica is built the same way, by
//     AddReplica from that model, over a transport of its own.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/serve"
	"pipedream/internal/tensor"
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
	// Server is the replica template: Plan, MaxBatch, BatchTimeout,
	// QueueCap, InputShape and the rest apply to every replica of this
	// tenant; Model and WeightGeneration are the tenant's start-up
	// weights, which Tenant.SwapModel advances. Quota and Metrics are
	// owned by the fleet, and each replica owns its transport, so
	// Transport, Quota and Metrics must be left nil; the fleet sets each
	// replica's MetricsPrefix.
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
	// WeightGeneration is the tenant's generation: every replica serves
	// it to new requests, and it only moves forward.
	WeightGeneration int
	// Swaps counts the generations Tenant.SwapModel installed, once per
	// generation however many replicas took it.
	Swaps int64
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

// New builds and starts a fleet: cfg.Replicas servers per tenant, each
// built by Tenant.AddReplica, each tenant behind its own admission quota.
// The fleet is ready for Infer when New returns; on error, every server
// already started is closed.
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
	f := &Fleet{tenants: make(map[string]*Tenant, len(tenants)), policy: policy}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry() // instruments stay live for Stats
	}
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
		t := &Tenant{
			name:     tc.Name,
			router:   newRouter(policy),
			quota:    serve.NewQuota(quotaBounds(tc, cfg.Replicas, stageCount(tc.Server))),
			met:      newTenantMetrics(reg, tc.Name),
			reg:      reg,
			health:   cfg.Health.withDefaults(),
			now:      time.Now,
			template: tc.Server,
		}
		f.tenants[tc.Name] = t
		f.order = append(f.order, tc.Name)
		for r := 0; r < cfg.Replicas; r++ {
			if _, err := t.AddReplica(); err != nil {
				f.Close()
				return nil, err
			}
		}
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
		swaps:     reg.Counter(prefix + "swaps"),
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

// Close stops every tenant: its follower first, then its replica
// servers. Safe to call more than once.
func (f *Fleet) Close() error {
	for _, name := range f.order {
		f.tenants[name].close()
	}
	return nil
}
