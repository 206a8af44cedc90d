// Package serve is PipeDream's forward-only serving runtime: it loads a
// trained model (checkpoint.LoadModel) onto a stage partitioning and pumps
// concurrent inference requests through the stages over the same
// transport layer the training runtime uses — inter-batch pipelining at
// serving time, the forward-only half of the paper's §3.2 schedule.
//
// Three pieces cooperate:
//
//   - A work-conserving dynamic batcher coalesces queued requests into
//     pipeline batches of at most MaxBatch rows: it dispatches the moment
//     stage 0 is free (a lone request never waits) and keeps collecting
//     only while stage 0 is busy, for at most BatchTimeout. Requests with
//     different per-row shapes never share a batch; requests larger than
//     MaxBatch are split across batches and the response is reassembled.
//   - One forward worker per stage runs the stage's layer slice
//     (train=false) and forwards activations downstream, so consecutive
//     batches execute concurrently on different stages.
//   - A response demultiplexer routes each batch's output rows back to
//     the submitting requests, preserving request/response pairing under
//     arbitrary concurrency.
//
// Admission control keeps latency bounded instead of letting queues grow
// without limit: at most QueueCap requests wait in the submit queue
// (further submits shed with ErrOverloaded) and at most MaxInFlight
// batches occupy the stage pipeline (the batcher blocks, transferring
// backpressure to the queue).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// Serving defaults; Config fields left zero select them.
const (
	// DefaultMaxBatch is the default cap on rows coalesced into one
	// pipeline batch.
	DefaultMaxBatch = 16
	// DefaultBatchTimeout is the default for the longest a partial batch
	// waits behind a busy stage 0 before it is dispatched anyway.
	DefaultBatchTimeout = 2 * time.Millisecond
	// DefaultQueueCap is the default bound on requests waiting for
	// batching; submits beyond it shed with ErrOverloaded.
	DefaultQueueCap = 256
)

// Config configures a Server.
type Config struct {
	// Model is the trained model to serve (e.g. from checkpoint.LoadModel
	// or Pipeline.CollectModel). The server slices it into stages; the
	// caller must not mutate its parameters while serving.
	Model *nn.Sequential
	// Plan partitions the model's layers into pipeline stages. Only the
	// layer ranges are used (forward-only serving runs one worker per
	// stage; training-time replica counts are ignored). Nil serves the
	// whole model as a single stage.
	Plan *partition.Plan
	// Transport carries inter-stage messages; default in-process
	// channels. A custom transport must provide len(stages)+1 endpoints:
	// one per stage plus the front-end demultiplexer at index
	// len(stages).
	Transport transport.Transport
	// InputShape, when non-nil, is the expected per-row shape of request
	// tensors; Infer rejects mismatched requests with ErrBadRequest
	// before they can reach (and panic) a stage worker. Nil disables
	// request-shape validation.
	InputShape []int
	// MaxBatch caps the rows coalesced into one pipeline batch
	// (DefaultMaxBatch when 0). 1 disables dynamic batching — every
	// request row set travels alone, the baseline the saturation
	// benchmark compares against.
	MaxBatch int
	// BatchTimeout bounds how long a partial batch keeps collecting while
	// stage 0 is busy (DefaultBatchTimeout when 0); at rest nothing waits.
	BatchTimeout time.Duration
	// QueueCap bounds the submit queue (DefaultQueueCap when 0); a full
	// queue sheds new requests with ErrOverloaded instead of growing
	// latency without bound.
	QueueCap int
	// Quota, when non-nil, is a shared admission budget this server
	// charges every request against, in addition to its own QueueCap: a
	// request claims a queue slot at submit (shedding with ErrOverloaded
	// when the budget's backlog is full), is promoted to an in-flight
	// slot when the batcher pulls it for dispatch (the batcher blocks
	// while the in-flight window is full, pushing backpressure back to
	// the queue), and releases the slot when its result is delivered.
	// Several servers — the replicas of one fleet tenant — share one
	// Quota so a tenant's overload sheds that tenant's traffic without
	// starving the others.
	Quota *Quota
	// MaxInFlight bounds the batches concurrently inside the stage
	// pipeline (2×stages when 0, enough to keep every stage busy with
	// one batch ahead).
	MaxInFlight int
	// WeightGeneration tags the initial weights with the checkpoint
	// generation (training minibatch cursor) they came from; SwapModel
	// and the checkpoint Follower only ever advance it. 0 fits freshly
	// initialized weights and pre-generation checkpoints.
	WeightGeneration int
	// KernelParallelism, when > 0, sets the tensor package's global
	// kernel parallelism for the server's lifetime; when 0 (and the
	// PIPEDREAM_PARALLELISM environment variable is unset) NewServer
	// lowers the degree to NumCPU/stages — the same per-worker scoping
	// Pipeline.Train applies — and Close restores it.
	KernelParallelism int
	// Metrics, when non-nil, receives serve.* instrumentation: request/
	// response/shed/batch counters, batch-size and request-latency
	// histograms, queue-depth gauge, and per-stage forward-time
	// histograms.
	Metrics *metrics.Registry
	// MetricsPrefix starts the name of every instrument the server puts
	// in Metrics; "serve." when empty. A fleet gives each replica its own.
	MetricsPrefix string
	// OpLog, when non-nil, records per-stage forward spans and
	// per-request end-to-end spans; render with trace.WriteRuntime.
	OpLog *metrics.OpLog
}

// Server is a live forward-only serving pipeline. Create with NewServer,
// submit with Infer from any number of goroutines, swap weights with
// SwapModel (or a checkpoint Follower), stop with Close.
type Server struct {
	cfg     Config
	nstages int
	tr      transport.Transport
	ownTr   bool
	client  int // demux endpoint index = nstages

	// graph is the plan's stage DAG; requests target one of its sinks
	// (heads) and traverse only that sink's ancestors. routes[h][st]
	// lists the successors stage st forwards to for head h; defaultHead
	// is the last stage (always a sink under topological numbering), so
	// Infer on a linear plan behaves exactly as before.
	graph       *partition.StageGraph
	sinks       []int
	routes      map[int][][]int
	defaultHead int

	// current is the weight version new batches board (see version.go):
	// SwapModel stores it, the batcher loads it at dispatch and each
	// batch carries what it loaded. swapMu orders SwapModel's staleness
	// check with its store.
	current atomic.Pointer[weightVersion]
	swapMu  sync.Mutex

	queue    chan *request
	inflight chan struct{} // admission semaphore, one slot per in-flight batch
	done     chan struct{}

	// stage0Busy counts the batches sent to stage 0 and not yet passed on;
	// stage 0 drops a token into stage0Idle when it returns to 0. The
	// batcher coalesces only while it is non-zero.
	stage0Busy atomic.Int32
	stage0Idle chan struct{}

	mu        sync.Mutex
	closed    bool
	pending   map[int]*batchInfo // batch id -> response routing
	met       *serverMetrics
	wg        sync.WaitGroup
	closeOnce sync.Once

	restoreParallelism func()
}

// request is one Infer call in flight: its input rows, the channel its
// result lands on, and its admission time (the latency span origin).
// promoted records whether the batcher upgraded the request's quota
// claim from a queue slot to an in-flight slot; the submitter reads it
// after the result arrives (ordered by the resp send) to release the
// right slot.
type request struct {
	x        *tensor.Tensor
	rows     int
	head     int // target sink stage; batches never mix heads
	resp     chan result
	enq      time.Time
	promoted bool
}

type result struct {
	y   *tensor.Tensor
	gen int // weight generation the request was served with
	err error
}

// pendingReq is the demux-side assembly state of one request: responses
// arrive per pipeline batch, possibly out of order when a large request
// was split, and complete the request when every row is accounted for.
type pendingReq struct {
	req       *request
	out       *tensor.Tensor // pooled on first completed segment
	remaining int            // rows still outstanding
	firstID   int            // first pipeline batch id (trace span tag)
	gen       int            // weight generation stamped at dispatch
	failed    bool           // true once a response with an error fired
}

// segment maps a row range of one pipeline batch back to a row range of
// one request.
type segment struct {
	pr     *pendingReq
	srcRow int // offset within the batch
	dstRow int // offset within the request
	n      int
}

// batchInfo is the demux routing entry for one dispatched batch.
type batchInfo struct {
	segs  []segment
	rows  int
	ver   *weightVersion // the version the batch was stamped with, which its stages run
	fault error          // first stage panic, set by noteFault under s.mu
}

// NewServer validates the config, slices the model into stage workers,
// and starts the batcher, stage, and demux goroutines. The server is
// ready for Infer when NewServer returns.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Model is required")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("serve: MaxBatch = %d", cfg.MaxBatch)
	}
	if cfg.BatchTimeout == 0 {
		cfg.BatchTimeout = DefaultBatchTimeout
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("serve: QueueCap = %d", cfg.QueueCap)
	}
	stages, err := cfg.Plan.StageSlices(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cfg.Model = nil // the weights live in s.current; a swap must free them
	graph := partition.NewLinear(len(stages))
	if cfg.Plan != nil {
		graph = cfg.Plan.Graph
	}
	if err := graph.Validate(len(stages)); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 2 * len(stages)
	}
	if cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("serve: MaxInFlight = %d", cfg.MaxInFlight)
	}
	s := &Server{
		cfg:         cfg,
		nstages:     len(stages),
		client:      len(stages),
		graph:       graph,
		sinks:       graph.Sinks(),
		defaultHead: len(stages) - 1,
		queue:       make(chan *request, cfg.QueueCap),
		inflight:    make(chan struct{}, cfg.MaxInFlight),
		done:        make(chan struct{}),
		stage0Idle:  make(chan struct{}, 1),
		pending:     make(map[int]*batchInfo),
		met:         newServerMetrics(cfg.Metrics, cfg.MetricsPrefix, cfg.OpLog, len(stages)),
	}
	// Precompute, per head, each stage's forward fan-out restricted to
	// the head's ancestor set: a request for one head never visits a
	// branch that head does not depend on.
	s.routes = make(map[int][][]int, len(s.sinks))
	for _, h := range s.sinks {
		anc := graph.Ancestors(h)
		per := make([][]int, len(stages))
		for st := 0; st < len(stages); st++ {
			if !anc[st] {
				continue
			}
			for _, n := range graph.Succs(st) {
				if anc[n] {
					per[st] = append(per[st], n)
				}
			}
		}
		s.routes[h] = per
	}
	s.current.Store(&weightVersion{gen: cfg.WeightGeneration, stages: stages})
	s.met.weightGen.Set(int64(cfg.WeightGeneration))
	s.tr = cfg.Transport
	if s.tr == nil {
		// Every in-flight batch can queue at a single stage — once per
		// in-edge at a fan-in stage — and one extra slot of slack per
		// endpoint absorbs the dispatch race.
		s.tr = transport.NewChannels(len(stages)+1, graph.MaxDegree()*(cfg.MaxInFlight+4))
		s.ownTr = true
	}
	// Scope kernel parallelism to the per-stage core share, exactly as
	// Pipeline.Train does for stage workers (explicit settings win).
	s.restoreParallelism = func() {}
	if cfg.KernelParallelism > 0 {
		tensor.SetParallelism(cfg.KernelParallelism)
	} else {
		s.restoreParallelism = tensor.ScopeParallelism(len(stages))
	}
	for st := range stages {
		s.wg.Add(1)
		go s.stageWorker(st)
	}
	s.wg.Add(2)
	go s.demux()
	go s.batcher()
	return s, nil
}

// Stages returns the number of pipeline stages the server runs.
func (s *Server) Stages() int { return s.nstages }

// Heads returns the sink stages requests may target, in ascending stage
// order. A linear plan has exactly one head (the last stage); a DAG plan
// has one per output branch.
func (s *Server) Heads() []int { return append([]int(nil), s.sinks...) }

// DefaultHead returns the head Infer targets: the last stage, which is
// always a sink under the graph's topological numbering.
func (s *Server) DefaultHead() int { return s.defaultHead }

// Infer runs one request through the serving pipeline and blocks until
// its result is ready. x holds one or more input rows (dim 0 is the row
// count); the result preserves row order and is bit-identical to a
// forward pass of the same input alone — dynamic batching never changes
// answers. Models that expand rows (FlattenTime reshaping [B, T, H] to
// [B*T, H]) return the uniformly expanded row count, each input row
// owning its consecutive output rows. Infer is safe for concurrent use;
// a full queue returns ErrOverloaded immediately (load shedding), a
// closed server ErrServerClosed, a batch the transport lost
// ErrTransport.
func (s *Server) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, _, err := s.InferVersioned(x)
	return y, err
}

// InferVersioned is Infer plus the weight generation the request was
// served with. The generation is a whole-request property: every row of
// the request ran every stage on exactly that generation's weights, even
// when a hot swap landed mid-flight (PipeDream's one-version-per-
// minibatch guarantee, applied to serving).
func (s *Server) InferVersioned(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	return s.InferHeadVersioned(x, s.defaultHead)
}

// InferHead runs one request through the stages the given head depends
// on — on a DAG plan, branches the head does not use are skipped
// entirely. head must be one of Heads(); other stages are rejected with
// ErrBadRequest. InferHead(x, DefaultHead()) is Infer(x).
func (s *Server) InferHead(x *tensor.Tensor, head int) (*tensor.Tensor, error) {
	y, _, err := s.InferHeadVersioned(x, head)
	return y, err
}

// InferHeadVersioned is InferHead plus the weight generation the request
// was served with.
func (s *Server) InferHeadVersioned(x *tensor.Tensor, head int) (*tensor.Tensor, int, error) {
	if _, ok := s.routes[head]; !ok {
		return nil, 0, fmt.Errorf("serve: stage %d is not an output head (heads: %v): %w",
			head, s.sinks, ErrBadRequest)
	}
	if x == nil || x.NumDims() < 1 || x.Dim(0) < 1 {
		return nil, 0, fmt.Errorf("serve: request needs at least one row: %w", ErrBadRequest)
	}
	if s.cfg.InputShape != nil && !rowShapeIs(x, s.cfg.InputShape) {
		return nil, 0, fmt.Errorf("serve: request row shape %v, want %v: %w",
			x.Shape[1:], s.cfg.InputShape, ErrBadRequest)
	}
	req := &request{x: x, rows: x.Dim(0), head: head, resp: make(chan result, 1), enq: time.Now()}
	s.met.requests.Inc()
	s.met.rows.Add(int64(req.rows))
	if err := s.submit(req); err != nil {
		return nil, 0, err
	}
	s.met.queueDepth.Set(int64(len(s.queue)))
	r := <-req.resp
	s.quotaRelease(req)
	if r.err != nil {
		s.met.errors.Inc()
		return nil, 0, r.err
	}
	s.met.responses.Inc()
	return r.y, r.gen, nil
}

// quotaRelease returns the request's admission-budget slot once its
// result has been delivered: the in-flight slot when the batcher
// promoted it, the queue slot when it never left the queue (shed by a
// racing Close, or failed before dispatch). The promoted flag is
// ordered by the resp send, so this runs race-free on the submitter.
func (s *Server) quotaRelease(req *request) {
	if s.cfg.Quota == nil {
		return
	}
	if req.promoted {
		s.cfg.Quota.releaseInFlight()
	} else {
		s.cfg.Quota.releaseQueued()
	}
}

// quotaPromote upgrades the request's quota claim from queued to
// in-flight, blocking while the shared in-flight window is full (a
// no-op for requests already promoted — carried batch seeds). It
// returns false when the server closed first; the queue slot stays held
// for the submitter's release path. Only the batcher's batch seed may
// block here: every other in-flight slot belongs to a dispatched
// request, so the wait always terminates.
func (s *Server) quotaPromote(req *request) bool {
	if s.cfg.Quota == nil || req.promoted {
		return true
	}
	if !s.cfg.Quota.promote(s.done) {
		return false
	}
	req.promoted = true
	return true
}

// quotaTryPromote is the non-blocking quotaPromote the batcher uses
// while growing a batch: a full in-flight window reports false instead
// of waiting, which ends the batch rather than risking a wait on the
// batch's own undispatched slots.
func (s *Server) quotaTryPromote(req *request) bool {
	if s.cfg.Quota == nil || req.promoted {
		return true
	}
	if !s.cfg.Quota.tryPromote() {
		return false
	}
	req.promoted = true
	return true
}

// submit enqueues the request, shedding when the queue is full. The
// closed check and the enqueue share the server mutex so a request can
// never slip into the queue after Close's final flush.
func (s *Server) submit(req *request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.cfg.Quota != nil && !s.cfg.Quota.tryQueue() {
		s.met.shed.Inc()
		return fmt.Errorf("serve: tenant quota: %d requests queued: %w", s.cfg.Quota.MaxQueued(), ErrOverloaded)
	}
	select {
	case s.queue <- req:
		return nil
	default:
		if s.cfg.Quota != nil {
			s.cfg.Quota.releaseQueued()
		}
		s.met.shed.Inc()
		return fmt.Errorf("serve: %d requests queued: %w", cap(s.queue), ErrOverloaded)
	}
}

// Close stops the server: new Infer calls fail with ErrServerClosed,
// queued and in-flight requests receive ErrServerClosed, and all worker
// goroutines exit before Close returns. It closes the transport only
// when the server created it.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
		// Every goroutine watches done and none blocks inside Send (the
		// MaxInFlight semaphore keeps inboxes below capacity), so the
		// wait terminates — and closing the owned transport only after
		// it avoids racing a close against an in-progress send.
		s.wg.Wait()
		if s.ownTr {
			s.tr.Close()
		}
		// All goroutines have exited; whatever is still tracked — batches
		// in the pending map, requests in the queue — can be failed
		// without racing anyone.
		s.mu.Lock()
		for id, info := range s.pending {
			delete(s.pending, id)
			for _, seg := range info.segs {
				s.failPendingLocked(seg.pr, ErrServerClosed)
			}
		}
		s.mu.Unlock()
		// Batches behind a failed one of the same request may still sit
		// in this server's inboxes (a closed inbox still yields what it
		// buffered): their deliveries go back to the pool.
		for ep := 0; ep <= s.client; ep++ {
			for drained := false; !drained; {
				select {
				case m, ok := <-s.tr.Inbox(ep):
					drained = !ok
					tensor.Put(m.Tensor)
				default:
					drained = true
				}
			}
		}
		for {
			select {
			case req := <-s.queue:
				req.resp <- result{err: ErrServerClosed}
			default:
				s.restoreParallelism()
				return
			}
		}
	})
	return nil
}

// rowShapeIs reports whether x's per-row shape (everything after dim 0)
// equals want.
func rowShapeIs(x *tensor.Tensor, want []int) bool {
	if x.NumDims()-1 != len(want) {
		return false
	}
	for i, d := range want {
		if x.Shape[i+1] != d {
			return false
		}
	}
	return true
}

// sameRowShape reports whether two tensors agree on every dimension
// after dim 0 — the condition for coalescing them into one batch.
func sameRowShape(a, b *tensor.Tensor) bool {
	if a.NumDims() != b.NumDims() {
		return false
	}
	for i := 1; i < a.NumDims(); i++ {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}
