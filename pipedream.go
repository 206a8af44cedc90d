// Package pipedream is a from-scratch Go reproduction of "PipeDream:
// Generalized Pipeline Parallelism for DNN Training" (SOSP 2019).
//
// The package exposes the full workflow the paper describes:
//
//  1. Profile — measure per-layer compute time, activation size, and
//     weight size for a model (ProfileModel), or use an analytic profile
//     from the model zoo (Model).
//  2. Plan — run the partitioner's exact search to split layers into
//     (possibly replicated) pipeline stages for a hardware topology
//     (Plan, or NewPlan with PlanOptions for the memory constraint,
//     explicit stage assignments, and DAG-shaped StageGraph dataflow —
//     fan-out branches, fan-in joins, multiple output heads).
//  3. Execute — either train a real model in-process with the 1F1B-RR
//     runtime, complete with weight stashing and round-robin replicated
//     stages (NewPipeline), or simulate the plan's behaviour on a
//     modelled GPU cluster (Simulate).
//
// The heavy lifting lives in the internal packages (tensor, nn, data,
// topology, profile, modelzoo, partition, schedule, transport, pipeline,
// cluster, statseff, experiments); this package re-exports the types a
// downstream user needs so that everyday use requires a single import.
//
// A minimal end-to-end example:
//
//	model := func() *nn.Sequential { ... }                  // your model
//	prof := pipedream.ProfileModel(model(), "mlp", ds, 16)  // 1. profile
//	topo := pipedream.ClusterA(1)                           // 4-GPU server
//	plan, _ := pipedream.Plan(prof, topo)                   // 2. plan
//	p, _ := pipedream.NewPipeline(pipedream.PipelineOptions{ // 3. run
//	    ModelFactory: model,
//	    Plan:         plan,
//	    Loss:         pipedream.SoftmaxCrossEntropy,
//	    NewOptimizer: func() pipedream.Optimizer { return pipedream.NewSGD(0.1, 0.9, 0) },
//	})
//	report, _ := p.Train(ds, ds.NumBatches())
package pipedream

import (
	"pipedream/internal/checkpoint"
	"pipedream/internal/cluster"
	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/metrics"
	"pipedream/internal/modelzoo"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/profile"
	"pipedream/internal/schedule"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
	"pipedream/internal/topology"
	"pipedream/internal/trace"
	"pipedream/internal/transport"
)

// Core model-building types.
type (
	// Tensor is a dense row-major float32 tensor — the value Server.Infer
	// consumes and produces.
	Tensor = tensor.Tensor
	// Sequential is an ordered list of layers — the unit PipeDream
	// partitions.
	Sequential = nn.Sequential
	// Layer is one differentiable operator with explicit Forward and
	// Backward passes.
	Layer = nn.Layer
	// Optimizer applies gradient updates (SGD, Adam, LARS): Step(params,
	// grads) in place, or StepInto(next, cur, grads) out of place — the
	// form the pipeline runtime uses to write a new weight version over the
	// gradients while in-flight minibatches still read the current one. A
	// custom optimizer implements both, with Step as StepInto(params,
	// params, grads), and reads each gradient element before it writes the
	// parameter element sharing its storage.
	Optimizer = nn.Optimizer
	// LossFunc scores predictions against labels and returns the loss
	// gradient — the type of PipelineOptions.Loss and the values of
	// PipelineOptions.SinkLoss (per-head losses of a DAG plan).
	LossFunc = pipeline.LossFunc
	// Dataset supplies deterministic minibatches.
	Dataset = data.Dataset
	// Batch is one minibatch of inputs and labels.
	Batch = data.Batch
)

// Profiling and planning types.
type (
	// ModelProfile is the per-layer (Tl, al, wl) triple the optimizer
	// consumes.
	ModelProfile = profile.ModelProfile
	// LayerProfile is one layer's profile entry.
	LayerProfile = profile.LayerProfile
	// Topology is a hierarchical hardware deployment.
	Topology = topology.Topology
	// Device describes one accelerator.
	Device = topology.Device
	// PartitionPlan assigns layer ranges to (replicated) stages.
	PartitionPlan = partition.Plan
	// StageSpec is one stage of a plan.
	StageSpec = partition.StageSpec
	// PlanOptions selects how NewPlan builds a plan: the device-memory
	// constraint, an explicit stage assignment, and/or a stage dataflow
	// graph.
	PlanOptions = partition.PlanOptions
	// StageGraph is the stage dataflow DAG of a plan: stages as nodes,
	// typed activation edges, fan-in joins, fan-out broadcasts. A nil
	// graph means the linear chain 0→1→…→n-1.
	StageGraph = partition.StageGraph
	// StageEdge is one typed activation edge of a StageGraph.
	StageEdge = partition.StageEdge
	// JoinOp says how a fan-in stage combines its incoming activations
	// (JoinSum or JoinConcat).
	JoinOp = partition.JoinOp
)

// Fan-in join operators for StageGraph nodes with more than one
// in-edge.
const (
	// JoinNone marks a stage with at most one in-edge.
	JoinNone = partition.JoinNone
	// JoinSum adds incoming activations elementwise (residual-style).
	JoinSum = partition.JoinSum
	// JoinConcat concatenates incoming activations along the feature
	// axis, in ascending predecessor-stage order.
	JoinConcat = partition.JoinConcat
)

// Execution types.
type (
	// PipelineOptions configures the 1F1B-RR training runtime.
	PipelineOptions = pipeline.Options
	// Pipeline is a live pipeline-parallel training instance.
	Pipeline = pipeline.Pipeline
	// TrainReport summarizes one training run.
	TrainReport = pipeline.Report
	// StalenessMode selects weight stashing / vertical sync / naive.
	StalenessMode = pipeline.StalenessMode
	// SimConfig configures a cluster simulation.
	SimConfig = cluster.Config
	// SimResult carries simulation measurements.
	SimResult = cluster.Result
	// Policy selects the inter-batch schedule (1F1B or GPipe).
	Policy = schedule.Policy
)

// Grouped pipeline configuration (embedded in PipelineOptions; read
// fields through promotion — opts.Recompute — but set them in literals
// through the group: RuntimeConfig: pipedream.RuntimeConfig{Recompute: true}).
type (
	// RuntimeConfig groups PipelineOptions' execution-shape knobs:
	// activation recomputation, kernel parallelism. The pipeline depth
	// is the plan's Depth.
	RuntimeConfig = pipeline.RuntimeConfig
	// SyncConfig groups PipelineOptions' gradient-synchronization knobs:
	// ring bucket size, gradient accumulation.
	SyncConfig = pipeline.SyncConfig
	// FaultConfig groups PipelineOptions' fault-tolerance knobs:
	// checkpointing, recovery budget, watchdog, heartbeat.
	FaultConfig = pipeline.FaultConfig
)

// Serving types (forward-only pipelined inference; see
// docs/ARCHITECTURE.md "Serving path").
type (
	// Server is a live forward-only serving pipeline with work-conserving
	// dynamic batching and admission control (internal/serve).
	Server = serve.Server
	// ServeConfig configures a Server: model, stage plan, batching
	// (MaxBatch/BatchTimeout), and admission control (QueueCap/
	// MaxInFlight).
	ServeConfig = serve.Config
	// ServeStats is a point-in-time summary of a Server's counters and
	// latency quantiles.
	ServeStats = serve.Stats
	// FollowConfig configures a checkpoint follower started with
	// Server.Follow or FleetTenant.Follow: the trainer's checkpoint
	// directory, a model factory, and the polling interval (see
	// docs/SERVING.md).
	FollowConfig = serve.FollowConfig
	// Follower is a running checkpoint follower that hot-swaps each new
	// complete checkpoint generation into its Server.
	Follower = serve.Follower
	// Quota is a tenant-wide admission budget (bounded queue + in-flight
	// cap) shared by every replica serving that tenant.
	Quota = serve.Quota
)

// Serving-fleet types (data-parallel replicas, request routing, and
// multi-model tenancy over one process; see docs/SERVING.md "Fleet and
// multi-tenancy").
type (
	// ServingFleet is a running multi-tenant replicated serving
	// deployment (internal/serve/fleet).
	ServingFleet = fleet.Fleet
	// FleetConfig sets the fleet-wide knobs: replicas per tenant,
	// routing policy, metrics registry.
	FleetConfig = fleet.Config
	// FleetTenantConfig declares one served model: its name, replica
	// template ServeConfig, and admission quota bounds.
	FleetTenantConfig = fleet.TenantConfig
	// FleetTenant is one served model inside a fleet with one weight
	// lineage for all its replicas; rescale it live with
	// AddReplica/RemoveReplica, follow checkpoints with Follow (one
	// follower, one load per generation), or install a model on every
	// replica with SwapModel.
	FleetTenant = fleet.Tenant
	// FleetStats summarizes every tenant of a fleet.
	FleetStats = fleet.Stats
	// FleetTenantStats summarizes one tenant: routing counters, quota
	// occupancy, per-replica serving stats.
	FleetTenantStats = fleet.TenantStats
	// FleetReplicaStats summarizes one live replica of one tenant.
	FleetReplicaStats = fleet.ReplicaStats
	// RoutePolicy selects how a fleet spreads requests across replicas.
	RoutePolicy = fleet.Policy
	// FleetHealthConfig sets router-level replica health checks
	// (FleetConfig.Health): eject a replica whose sliding-window error
	// rate exceeds MaxErrorRate, re-admit after CoolDown.
	FleetHealthConfig = fleet.HealthConfig
)

// Fleet routing policies.
const (
	// RouteRoundRobin cycles requests across replicas in id order.
	RouteRoundRobin = fleet.RoundRobin
	// RouteLeastInFlight routes to the replica with the fewest
	// outstanding requests.
	RouteLeastInFlight = fleet.LeastInFlight
	// RouteShapeAffinity sends same-shaped requests to the same replica
	// (rendezvous hashing) so they coalesce into full batches.
	RouteShapeAffinity = fleet.ShapeAffinity
)

// Observability types (set PipelineOptions.Metrics / PipelineOptions.OpLog
// to instrument a live run; see docs/ARCHITECTURE.md "Observability").
type (
	// MetricsRegistry collects live counters, gauges, and histograms and
	// serializes expvar-style JSON snapshots (WriteJSON).
	MetricsRegistry = metrics.Registry
	// OpLog captures per-op runtime events for Chrome-trace export.
	OpLog = metrics.OpLog
	// StageStats is one worker's per-run statistics (bubble fraction,
	// queue depth, staleness, op times) in TrainReport.Stages.
	StageStats = pipeline.StageStats
)

// Fault-tolerance types (see docs/ARCHITECTURE.md "Failure detection and
// recovery"): transports return typed errors instead of panicking, the
// Chaos wrapper injects seeded faults for testing, and PipelineOptions'
// CheckpointDir/CheckpointEvery/MaxRecoveries/WatchdogTimeout/
// HeartbeatEvery fields enable mid-training checkpointing and supervised
// recovery.
type (
	// Transport carries inter-stage messages (channels, TCP, or a Chaos
	// wrapper around either).
	Transport = transport.Transport
	// ChaosTransport wraps another transport with deterministic seeded
	// fault injection (drop/delay/duplicate/sever/kill-inbox).
	ChaosTransport = transport.Chaos
	// ChaosConfig parameterizes a ChaosTransport's fault schedule.
	ChaosConfig = transport.ChaosConfig
	// TransportStats counts a transport's reconnects, send errors, and
	// injected faults.
	TransportStats = transport.Stats
	// FaultStats summarizes a training run's failure-path activity in
	// TrainReport.Faults.
	FaultStats = pipeline.FaultStats
)

// Elastic-runtime types (see docs/ARCHITECTURE.md "Elastic runtime"):
// a membership view tracks which workers are alive, and the rescale
// controller drains training to a checkpoint barrier and repartitions
// onto the live set whenever the view changes.
type (
	// MembershipView is a generation-numbered registry of live workers
	// (join, leave, heartbeat, eviction sweep) the elastic runtime
	// follows.
	MembershipView = membership.View
	// MembershipConfig sets a view's liveness timeout and rescale
	// debounce window.
	MembershipConfig = membership.Config
	// Member is one live worker in a MembershipView.
	Member = membership.Member
	// Elastic is the rescale controller: a training runtime that
	// repartitions onto the live worker set as membership changes.
	Elastic = pipeline.Elastic
	// ElasticConfig wires a MembershipView and a replan function into
	// NewElastic.
	ElasticConfig = pipeline.ElasticConfig
	// ReplanFunc re-runs the partitioner for a new live worker count.
	ReplanFunc = pipeline.ReplanFunc
	// TransportFactory builds the transport for one elastic plan
	// incarnation.
	TransportFactory = pipeline.TransportFactory
	// RescaleStats records one rescale's worker-count change and its
	// drain/replan/restart latency split (TrainReport.Rescales).
	RescaleStats = pipeline.RescaleStats
)

// Typed failure errors (match with errors.Is).
var (
	// ErrPeerDown marks a send whose peer is unreachable after retries.
	ErrPeerDown = transport.ErrPeerDown
	// ErrTransportClosed marks an operation on a closed transport.
	ErrTransportClosed = transport.ErrClosed
	// ErrWorkerStalled marks a worker whose watchdog saw no progress.
	ErrWorkerStalled = pipeline.ErrWorkerStalled
	// ErrOverloaded marks a serving request shed by admission control.
	ErrOverloaded = serve.ErrOverloaded
	// ErrServerClosed marks a serving request submitted to (or caught
	// inside) a closed Server.
	ErrServerClosed = serve.ErrServerClosed
	// ErrBadRequest marks a serving request rejected by validation
	// before admission (no rows, or a row shape unlike InputShape).
	ErrBadRequest = serve.ErrBadRequest
	// ErrInference marks a serving request whose batch failed inside a
	// stage forward pass.
	ErrInference = serve.ErrInference
	// ErrStaleGeneration marks a SwapModel call whose generation does
	// not advance past the one currently serving.
	ErrStaleGeneration = serve.ErrStaleGeneration
	// ErrServeTransport marks a serving request whose batch the
	// transport lost between stages.
	ErrServeTransport = serve.ErrTransport
	// ErrUnknownTenant marks a fleet request naming a tenant the fleet
	// does not serve.
	ErrUnknownTenant = fleet.ErrUnknownTenant
	// ErrNoReplicas marks a fleet request to a tenant whose routing set
	// is empty (every replica removed).
	ErrNoReplicas = fleet.ErrNoReplicas
)

// Staleness modes (§3.3 of the paper).
const (
	WeightStashing = pipeline.WeightStashing
	VerticalSync   = pipeline.VerticalSync
	NoStashing     = pipeline.NoStashing
)

// Scheduling policies.
const (
	PipeDream1F1B = schedule.PipeDream1F1B
	GPipe         = schedule.GPipe
)

// Re-exported constructors and functions.
var (
	// NewSGD, NewAdam, and NewLARS build optimizers.
	NewSGD  = nn.NewSGD
	NewAdam = nn.NewAdam
	NewLARS = nn.NewLARS
	// SoftmaxCrossEntropy is the standard classification loss.
	SoftmaxCrossEntropy = nn.SoftmaxCrossEntropy
	// Accuracy scores logits against labels.
	Accuracy = nn.Accuracy

	// ClusterA/B/C are the paper's Table 2 deployments.
	ClusterA = topology.ClusterA
	ClusterB = topology.ClusterB
	ClusterC = topology.ClusterC

	// Model returns an analytic profile for one of the paper's models
	// ("VGG-16", "ResNet-50", "AlexNet", "GNMT-8", "GNMT-16", "AWD-LM",
	// "S2VT", "BERT-Large", ...).
	Model = modelzoo.ByName
	// Models lists the model zoo.
	Models = modelzoo.Names

	// NewTCP creates a loopback TCP transport hosting all workers in this
	// process (messages over real sockets).
	NewTCP = transport.NewTCP
	// ListenTCP creates one process's endpoint of the same transport for
	// distributed deployments: every process passes the shared address
	// list and the worker IDs it hosts. A pipeline built on it runs
	// exactly those workers.
	ListenTCP = transport.ListenTCP
	// NewChannelTransport creates the default in-process channel
	// transport explicitly (useful as the inner transport of NewChaos).
	NewChannelTransport = transport.NewChannels
	// NewChaos wraps a transport with seeded fault injection for
	// chaos-testing the pipeline's failure detection and recovery.
	NewChaos = transport.NewChaos
	// LatestCheckpoint reports the cursor (global minibatch index) of the
	// newest complete checkpoint generation in a directory.
	LatestCheckpoint = checkpoint.Latest
	// LoadCheckpointModel reassembles the full model from the newest
	// complete checkpoint generation in a directory — the bridge from a
	// training run to NewServer (the serving plan need not match the
	// training plan).
	LoadCheckpointModel = checkpoint.LoadModel
	// NewServer starts a forward-only serving pipeline over a trained
	// model; submit requests with Server.Infer.
	NewServer = serve.NewServer
	// NewFleet starts a replicated multi-tenant serving fleet; submit
	// requests with ServingFleet.Infer(tenant, x).
	NewFleet = fleet.New
	// ParseRoutePolicy maps a -route flag value ("round-robin",
	// "least-in-flight", "shape-affinity", or "") to a RoutePolicy.
	ParseRoutePolicy = fleet.ParsePolicy
	// NewQuota builds a tenant admission budget for ServeConfig.Quota;
	// fleets build one per tenant automatically.
	NewQuota = serve.NewQuota
	// NewMembershipView creates the worker registry the elastic runtime
	// follows.
	NewMembershipView = membership.New
	// NewElastic builds the elastic training runtime: training that
	// drains to a checkpoint barrier and repartitions whenever the
	// membership view changes.
	NewElastic = pipeline.NewElastic

	// NewMetricsRegistry and NewOpLog build the observability sinks a
	// pipeline accepts via PipelineOptions.Metrics / PipelineOptions.OpLog.
	NewMetricsRegistry = metrics.NewRegistry
	NewOpLog           = metrics.NewOpLog
	// WriteRuntimeTrace renders a captured OpLog as a Chrome/Perfetto
	// trace-event file — the measured counterpart of the simulator's
	// timeline export.
	WriteRuntimeTrace = trace.WriteRuntime
)

// ProfileModel measures a real model's per-layer profile, as the paper's
// profiler does (§3.1): run numBatches minibatches on one worker, timing
// each layer's forward and backward pass and recording activation and
// weight sizes.
func ProfileModel(model *Sequential, name string, ds Dataset, numBatches int) *ModelProfile {
	return profile.Measure(model, name, ds, numBatches)
}

// NewPlan is the single planning entry point: it splits the profiled
// layers into pipeline stages, chooses replication factors, and computes
// the predicted throughput and the in-flight depth (Plan.Depth, Windows).
// PlanOptions select the device-memory constraint (which lowers
// Plan.Depth until the stages fit), an explicit stage assignment to
// price instead of optimizing, and/or a StageGraph giving the stages
// DAG-shaped dataflow.
func NewPlan(prof *ModelProfile, topo *Topology, opts PlanOptions) (*PartitionPlan, error) {
	return partition.NewPlan(prof, topo, opts)
}

// NewLinear builds the straight-line StageGraph 0→1→…→n-1 — the
// explicit form of the chain every pre-graph plan described.
func NewLinear(n int) *StageGraph {
	return partition.NewLinear(n)
}

// Plan is shorthand for NewPlan with default options: run the optimizer
// and nothing else.
func Plan(prof *ModelProfile, topo *Topology) (*PartitionPlan, error) {
	return partition.NewPlan(prof, topo, partition.PlanOptions{})
}

// DataParallelPlan returns the vanilla data-parallel configuration for
// comparison.
func DataParallelPlan(prof *ModelProfile, topo *Topology) (*PartitionPlan, error) {
	return partition.DataParallel(prof, topo)
}

// NewPipeline builds the 1F1B-RR training runtime for a plan: the stage
// workers whose inboxes opts.Transport hosts — all of the plan's by
// default, or in a multi-process deployment the ones listed to
// ListenTCP, with every process calling Train with the same counts.
func NewPipeline(opts PipelineOptions) (*Pipeline, error) {
	return pipeline.New(opts)
}

// Simulate executes a plan on the modelled GPU cluster and reports
// throughput, utilization, memory, and communication volumes.
func Simulate(cfg SimConfig) (*SimResult, error) {
	return cluster.Simulate(cfg)
}
