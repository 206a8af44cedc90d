package pipeline

import (
	"fmt"
	"time"

	"pipedream/internal/collective"
	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/schedule"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// This file is the stage worker: its stash, the routing of arrivals, and the
// schedule loop of forwards and backwards. Gradient sync is in sync.go.

// stashEntry is the per-minibatch state a worker keeps between a forward
// and its backward: exactly what the backward reads.
type stashEntry struct {
	weights *weightVersion // version the forward ran under, held until the backward ends (nil in NoStashing)
	ctx     *nn.SeqContext // nil when recomputation is enabled
	// input is the stage input while a layer context or recomputation reads
	// it or the loss wrote over it; nil once released (or left to the dataset).
	input *tensor.Tensor
	// output is the stage output while the backward pass still reads it (a
	// stage ending in Tanh or Sigmoid, whose context is its output); nil once
	// released, and for a view of the input, which goes the way of the input.
	output     *tensor.Tensor
	held       int64 // the activation bytes counted in the worker's stash
	version    int   // the minibatch's vertical-sync tag
	fwdUpdates int   // local optimizer updates at forward time (staleness baseline)
	// joinWidths records, for a JoinConcat stage, each predecessor's
	// feature width (in sw.preds order) so the backward pass can split
	// the gradient back per edge. Nil elsewhere.
	joinWidths []int
}

type stageWorker struct {
	p       *Pipeline
	id      int
	stage   int
	replica int
	model   *nn.Sequential
	opt     nn.Optimizer
	mode    StalenessMode

	// The stage's parameters live in the arrays of weights' versions and its
	// gradients (grads, in Grads() order) in gradArena, which the ring's
	// buckets reduce in place. accum, made at the first use, sums the
	// gradients of one GradAccumulation cycle; accumViews are its
	// per-gradient views and accumCount the minibatches summed so far. A
	// step writes weights over either array and swaps in a freed one.
	weights    *weightVersions
	grads      []*tensor.Tensor
	gradArena  []float32
	accum      []float32
	accumViews []*tensor.Tensor
	accumCount int

	// Dataflow position in the plan's stage graph: the stages feeding
	// this one, the stages it feeds, how fan-in activations combine,
	// and the loss this stage computes when it is a sink.
	preds, succs []int
	join         partition.JoinOp
	loss         LossFunc

	// ring is a replicated stage's gradient collective; nil on a stage
	// with one replica. gradOffsets maps "layer i finished backward" to
	// the first final gradient tensor; curAb and ringErr let the
	// message-routing path (enqueue) surface collective failures into the
	// running chunk's abort.
	ring        *collective.RingReducer
	gradOffsets []int
	curAb       *runAbort
	ringErr     error

	updates int
	stash   map[int]stashEntry

	stashBytes     int64
	peakStashBytes int64

	// met is the worker's instrumentation state; nil when observability
	// is off, and every hook is guarded so the disabled hot path pays
	// only the nil checks. syncStart/syncDur carry the most recent
	// gradient-sync wait from the sync block to the backward hook;
	// syncFirst is the portion of it spent before the first bucket
	// completed.
	met       *workerMetrics
	syncStart time.Time
	syncDur   time.Duration
	syncFirst time.Duration

	// fwdReady/bwdReady hold, by minibatch, the inputs that have fully
	// arrived and wait for their op's turn in the schedule: the stage's
	// input activation, and the gradient of its output (a sink's own loss
	// gradient lands in bwdReady when its forward ends). Entries for a
	// later Train window stay until that window runs.
	fwdReady, bwdReady map[int]transport.Message
	// fwdPend/gradPend hold per-edge arrivals at fan-in/fan-out stages
	// (minibatch → source stage → payload). A forward becomes ready
	// once every predecessor's activation landed; a backward once every
	// successor's gradient did. Single-edge stages bypass both.
	fwdPend  map[int]map[int]transport.Message
	gradPend map[int]map[int]*tensor.Tensor
	// seenFwd marks minibatches whose activation was already accepted, so
	// duplicate deliveries are dropped instead of running twice.
	seenFwd map[int]bool
	// dupDrops counts duplicate messages discarded by dedup.
	dupDrops int
	// lastProgress is the watchdog baseline: the time of the last
	// completed op or accepted message. Heartbeats do not advance it.
	lastProgress time.Time

	results    chan<- lossEvent
	trainStart int
	trainEnd   int
}

func (sw *stageWorker) replicas() int { return len(sw.p.assign.StageWorkers[sw.stage]) }

// isSink reports whether this stage has no downstream stage in the plan
// graph — it computes a loss instead of forwarding activations.
func (sw *stageWorker) isSink() bool { return len(sw.succs) == 0 }

// drop discards a duplicate or stale delivery. It is a private copy like
// any other (transport.Transport), so its tensor goes back to the pool.
func (sw *stageWorker) drop(m transport.Message) {
	sw.dupDrops++
	tensor.Put(m.Tensor)
}

// enqueue routes an incoming message to the right arrived-set, dropping
// duplicates (a transport retransmit after reconnect, or an injected
// chaos duplicate, must not run a minibatch twice).
func (sw *stageWorker) enqueue(m transport.Message) {
	switch m.Kind {
	case transport.Activation:
		if sw.seenFwd[m.Minibatch] {
			sw.drop(m)
			return
		}
		if len(sw.preds) > 1 {
			// Fan-in stage: hold the arrival until every in-edge delivered,
			// then queue a tensorless ready marker; forward() joins the
			// held activations. Dedup is per source edge.
			pend := sw.fwdPend[m.Minibatch]
			if _, dup := pend[m.Src]; dup {
				sw.drop(m)
				return
			}
			if pend == nil {
				pend = make(map[int]transport.Message, len(sw.preds))
				if sw.fwdPend == nil {
					sw.fwdPend = make(map[int]map[int]transport.Message)
				}
				sw.fwdPend[m.Minibatch] = pend
			}
			pend[m.Src] = m
			if len(pend) < len(sw.preds) {
				return
			}
			first := pend[sw.preds[0]]
			m = transport.Message{Kind: transport.Activation, Minibatch: m.Minibatch,
				Version: first.Version, Labels: first.Labels}
		}
		if sw.seenFwd == nil {
			sw.seenFwd = make(map[int]bool)
		}
		sw.seenFwd[m.Minibatch] = true
		sw.fwdReady[m.Minibatch] = m
	case transport.Gradient:
		// A gradient is valid only while its forward's stash entry exists;
		// a second delivery after the backward ran has no stash and drops.
		if _, ok := sw.stash[m.Minibatch]; !ok {
			sw.drop(m)
			return
		}
		if len(sw.succs) > 1 {
			// Fan-out stage: every successor returns a gradient for the
			// broadcast activation; hold them until all arrived, then
			// queue a tensorless ready marker that backward() sums.
			pend := sw.gradPend[m.Minibatch]
			if _, dup := pend[m.Src]; dup {
				sw.drop(m)
				return
			}
			if pend == nil {
				pend = make(map[int]*tensor.Tensor, len(sw.succs))
				if sw.gradPend == nil {
					sw.gradPend = make(map[int]map[int]*tensor.Tensor)
				}
				sw.gradPend[m.Minibatch] = pend
			}
			pend[m.Src] = m.Tensor
			if len(pend) < len(sw.succs) {
				return
			}
			m = transport.Message{Kind: transport.Gradient, Minibatch: m.Minibatch, Version: m.Version}
		}
		if _, dup := sw.bwdReady[m.Minibatch]; dup {
			sw.drop(m)
			return
		}
		sw.bwdReady[m.Minibatch] = m
	case transport.GradChunk:
		if sw.ring == nil {
			sw.drop(m)
			return
		}
		if err := sw.ring.Deliver(m); err != nil && sw.ringErr == nil {
			sw.ringErr = fmt.Errorf("pipeline: worker %d ring all-reduce: %w", sw.id, err)
			if sw.curAb != nil {
				sw.curAb.fail(sw.ringErr)
			}
		}
	case transport.Heartbeat:
		// Liveness only; never queued.
	default:
		// No training worker consumes any other kind (a retired one, or a
		// Prediction that went astray).
		sw.drop(m)
	}
}

// drainInbox moves every queued message into the worker's queues without
// blocking.
func (sw *stageWorker) drainInbox() {
	inbox := sw.p.tr.Inbox(sw.id)
	for {
		select {
		case m, ok := <-inbox:
			if !ok {
				return
			}
			sw.enqueue(m)
		default:
			return
		}
	}
}

// run executes the worker's static schedule for one chunk of a Train
// call: the ops of its schedule.Table list, in order. Each op blocks —
// under the watchdog and the shared abort, still routing ring and
// heartbeat traffic — until the activation or gradient it needs has
// arrived; messages for later ops wait in the arrived-sets. run returns a
// non-nil error (after flagging the shared abort) when the transport
// fails, the watchdog trips, or another worker aborted the chunk.
func (sw *stageWorker) run(ds data.Dataset, ops []schedule.TableOp, start, end int, results chan<- lossEvent, ab *runAbort) error {
	sw.results = results
	sw.trainStart = start
	sw.trainEnd = end
	sw.curAb = ab
	sw.ringErr = nil
	defer func() { sw.curAb = nil }()
	for mb := range sw.seenFwd {
		if mb < start {
			delete(sw.seenFwd, mb)
		}
	}
	sw.lastProgress = time.Now()
	if sw.met != nil {
		sw.met.beginSpan()
		defer sw.met.endSpan()
	}

	for _, op := range ops {
		if ab.failed() {
			return ab.error()
		}
		sw.drainInbox()
		if sw.met != nil {
			sw.met.sampleQueues(len(sw.fwdReady) + len(sw.bwdReady))
		}
		var m transport.Message
		if op.Kind == schedule.Forward && sw.stage == 0 {
			// The input stage reads its own minibatch. The version tag
			// counts the minibatches reflected in this replica's weights.
			batch := ds.Batch(op.Minibatch)
			m = transport.Message{
				Kind: transport.Activation, Minibatch: op.Minibatch,
				Version: sw.reflected(), Tensor: batch.X, Labels: batch.Labels,
			}
		} else {
			ready := sw.fwdReady
			if op.Kind == schedule.Backward {
				ready = sw.bwdReady
			}
			ok := false
			for m, ok = ready[op.Minibatch]; !ok; m, ok = ready[op.Minibatch] {
				// Block for the next message (the worker's directly observed
				// pipeline bubble), under the watchdog.
				if err := sw.waitMsg(ab, true); err != nil {
					return err
				}
			}
			delete(ready, op.Minibatch)
		}
		var err error
		if op.Kind == schedule.Backward {
			err = sw.backward(m, ab)
		} else {
			err = sw.forward(m, ab)
		}
		if err != nil {
			return err
		}
		sw.lastProgress = time.Now()
	}
	return nil
}

// forward runs the stage's forward pass for one minibatch. A sink stage
// computes the loss and leaves its gradient in bwdReady for the matching
// backward op. A transport failure on the downstream send aborts the run.
func (sw *stageWorker) forward(m transport.Message, ab *runAbort) error {
	var op0 time.Time
	if sw.met != nil {
		op0 = time.Now()
		defer func() { sw.met.forwardDone(sw, m.Minibatch, op0) }()
	}
	// Fan-in stages queue a tensorless ready marker; materialize the
	// stage input by joining the held per-edge activations.
	var joinWidths []int
	if m.Tensor == nil && len(sw.preds) > 1 {
		var err error
		m.Tensor, joinWidths, err = sw.joinPending(m.Minibatch)
		if err != nil {
			return ab.fail(err)
		}
	}
	// The version this forward runs under is held, not copied, until the
	// minibatch's backward ends.
	var weights *weightVersion
	switch sw.mode {
	case WeightStashing:
		weights = sw.weights.latest()
	case VerticalSync:
		// Version tags count globally reflected minibatches, so stages
		// with different replication factors can translate them: this
		// stage's version after u local updates reflects u·replicas
		// minibatches. Use the newest version not exceeding the tag.
		if weights = sw.weights.lookup(m.Version); weights == nil {
			return ab.fail(fmt.Errorf("pipeline: worker %d has no weight version ≤ tag %d (surviving versions %v)",
				sw.id, m.Version, sw.weights.keys()))
		}
	}
	if weights != nil {
		sw.trackStash(sw.weights.hold(weights))
		sw.weights.bind(weights)
	}
	// The layers may write over a delivered or joined input, not over the
	// dataset's batch or an input recomputation re-runs from.
	forward := sw.model.Forward
	if len(sw.preds) > 0 && !sw.p.opts.Recompute {
		forward = sw.model.ForwardOver
	}
	y, ctx := forward(m.Tensor, true)
	sw.weights.bind(sw.weights.latest())
	entry := stashEntry{weights: weights, ctx: ctx, input: m.Tensor,
		version: m.Version, fwdUpdates: sw.updates, joinWidths: joinWidths}
	if !tensor.SharesStorage(y, m.Tensor) {
		entry.output = y
	}
	var err error
	var grad *tensor.Tensor // a sink's loss gradient
	if sw.isSink() {
		var loss float64
		loss, grad = sw.loss(y, m.Labels)
		if tensor.SharesStorage(grad, y) {
			// A loss that wrote its gradient over the prediction: one
			// array, released as the gradient.
			entry.output = nil
		}
		sw.results <- lossEvent{mb: m.Minibatch, loss: loss}
		sw.bwdReady[m.Minibatch] = transport.Message{
			Kind: transport.Gradient, Minibatch: m.Minibatch,
			Version: m.Version, Tensor: grad,
		}
	} else {
		var s0 time.Time
		if sw.met != nil {
			s0 = time.Now()
		}
		err = sw.sendActivation(m, y, ab)
		if sw.met != nil {
			sw.met.opSend += time.Since(s0)
		}
	}
	if sw.p.opts.Recompute {
		// Keep only the stage input; the backward pass re-runs the
		// forward to rebuild layer contexts (trading compute for the
		// activation-stash memory, §3.3). What this forward built has
		// served its purpose.
		sw.model.Discard(ctx)
		entry.ctx = nil
	}
	if entry.ctx == nil || !entry.ctx.ReadsOutput() {
		// The output has been used (sent, or scored) and no layer
		// context needs it for the backward pass.
		tensor.Put(entry.output)
		entry.output = nil
	}
	if entry.ctx == nil {
		entry.held = int64(m.Tensor.Bytes())
	} else {
		if !entry.ctx.ReadsInput() && !tensor.SharesStorage(grad, m.Tensor) {
			// Nor does any context need the input (a stage starting with
			// ReLU or Tanh). A delivered or joined input is this worker's;
			// the input stage's batch is the dataset's.
			if len(sw.preds) > 0 {
				tensor.Put(m.Tensor)
			}
			entry.input = nil
		}
		entry.held = entry.ctx.HeldBytes(entry.input, entry.output)
	}
	sw.stash[m.Minibatch] = entry
	sw.trackStash(entry.held)
	return err
}

// sendActivation broadcasts the output activation y of minibatch m along
// every out-edge (one send for a linear plan). Send only borrows y, so the
// same tensor backs every send. A transport failure aborts the run.
func (sw *stageWorker) sendActivation(m transport.Message, y *tensor.Tensor, ab *runAbort) error {
	for _, next := range sw.succs {
		target := sw.p.assign.StageWorkers[next][schedule.ReplicaFor(m.Minibatch, len(sw.p.assign.StageWorkers[next]))]
		if err := sw.p.tr.Send(target, transport.Message{
			Kind: transport.Activation, Minibatch: m.Minibatch,
			Version: m.Version, Src: sw.stage, Tensor: y, Labels: m.Labels,
		}); err != nil {
			return ab.fail(fmt.Errorf("pipeline: worker %d forward mb %d: %w", sw.id, m.Minibatch, err))
		}
	}
	return nil
}

// backward runs the stage's backward pass for one minibatch — the input
// pass, the upstream send, the parameter pass — synchronizes gradients
// across replicas, and applies the update to the latest weights
// (PipeDream's semantics: gradients are computed with stashed weights but
// applied to the most recent version). The schedule runs it exactly once
// per minibatch, after that minibatch's forward, so the stash entry is
// there.
func (sw *stageWorker) backward(m transport.Message, ab *runAbort) error {
	entry := sw.stash[m.Minibatch]
	var op0 time.Time
	var gradUp time.Duration // when the upstream gradient left, from op0
	if sw.met != nil {
		op0 = time.Now()
		staleness := sw.updates - entry.fwdUpdates
		defer func() {
			sw.met.backwardDone(sw, m.Minibatch, op0, gradUp, sw.syncStart, sw.syncDur, sw.syncFirst, staleness)
			sw.syncDur = 0
			sw.syncFirst = 0
		}()
	}
	// Fan-out stages queue a tensorless ready marker once every
	// successor's gradient arrived; the broadcast point sums them.
	if m.Tensor == nil && len(sw.succs) > 1 {
		m.Tensor = sw.sumPendingGrads(m.Minibatch)
	}
	delete(sw.stash, m.Minibatch)

	// A replicated stage opens the all-reduce round before backward runs
	// so that tail buckets start reducing from the overlap hook, ringHook,
	// while earlier layers are still backpropagating. A window's final
	// partial round may have one participant: nothing to synchronize.
	var ringHook func(layer int)
	if sw.ring != nil {
		if participants, roundKey := sw.roundOf(m.Minibatch); participants > 1 {
			ringHook = sw.pumpRing
			if err := sw.ring.BeginRound(roundKey, participants, sw.grads); err != nil {
				return ab.fail(fmt.Errorf("pipeline: worker %d ring round for mb %d: %w", sw.id, m.Minibatch, err))
			}
		}
	}

	// The upstream gradient leaves the moment the input pass has made it —
	// before any weight gradient, ring drain or optimizer step — so the
	// previous stage starts its backward while this one finishes (the input
	// stage asks for none); the join's backward routes it to each in-edge
	// (as is for sum, split by width for concat). The sends only borrow it;
	// a stage of views returns a view of the downstream gradient.
	var sendErr error
	var up func(*tensor.Tensor)
	if len(sw.preds) > 0 {
		up = func(gradIn *tensor.Tensor) {
			upGrads, err := splitJoinGrad(sw.join, gradIn, sw.preds, entry.joinWidths)
			var s0 time.Time
			if sw.met != nil {
				s0 = time.Now()
			}
			for i := 0; err == nil && i < len(sw.preds); i++ {
				prev := sw.preds[i]
				target := sw.p.assign.StageWorkers[prev][schedule.ReplicaFor(m.Minibatch, len(sw.p.assign.StageWorkers[prev]))]
				err = sw.p.tr.Send(target, transport.Message{
					Kind: transport.Gradient, Minibatch: m.Minibatch,
					Version: entry.version, Src: sw.stage, Tensor: upGrads[i],
				})
			}
			if sw.met != nil {
				sent := time.Now()
				sw.met.opSend += sent.Sub(s0)
				gradUp = sent.Sub(op0)
			}
			for _, g := range upGrads {
				if g != gradIn {
					tensor.Put(g) // a concat join's per-edge column copy
				}
			}
			if !tensor.SharesStorage(gradIn, m.Tensor) {
				tensor.Put(gradIn)
			}
			if err != nil {
				sendErr = ab.fail(fmt.Errorf("pipeline: worker %d backward mb %d: %w", sw.id, m.Minibatch, err))
			}
		}
	}
	// Point the layers at the version the forward ran under, and back: its
	// last reader may be this backward, which then frees its array.
	if entry.weights != nil {
		sw.weights.bind(entry.weights)
	}
	ctx := entry.ctx
	if ctx == nil {
		// Recomputation: re-run the forward pass (under the same stashed
		// weights) to rebuild the layer contexts.
		var y *tensor.Tensor
		y, ctx = sw.model.Forward(entry.input, true)
		if !tensor.SharesStorage(y, entry.input) {
			entry.output = y
		}
	}
	sw.model.BackwardWithHook(ctx, m.Tensor, up, ringHook)
	if entry.weights != nil {
		sw.weights.bind(sw.weights.latest())
		sw.trackStash(-sw.weights.release(entry.weights))
	}
	sw.trackStash(-entry.held)
	// Nothing reads the minibatch's input activation (a layer context until
	// now), its output (possibly the last layer's context) or the output's
	// gradient again, and the upstream gradient — maybe a view of the latter
	// — has left. All three are this worker's, taken off the transport or
	// made here; only the input stage's batch is the dataset's. An input
	// the loss wrote its gradient over goes as the gradient.
	if len(sw.preds) > 0 && !tensor.SharesStorage(entry.input, m.Tensor) {
		tensor.Put(entry.input)
	}
	tensor.Put(m.Tensor)
	tensor.Put(entry.output)
	if sendErr != nil {
		return sendErr
	}
	if sw.ringErr != nil {
		err := sw.ringErr
		sw.ringErr = nil
		return err
	}

	// Replicated stages average gradients before updating, so replicas
	// stay consistent (the runtime analogue of DDP within a stage).
	if ringHook != nil {
		var s0 time.Time
		if sw.met != nil {
			s0 = time.Now()
		}
		if err := sw.drainRing(ab); err != nil {
			return err
		}
		if sw.met != nil {
			sw.syncStart, sw.syncDur = s0, time.Since(s0)
		}
	}
	sw.applyUpdate()
	return nil
}

func (sw *stageWorker) trackStash(delta int64) {
	sw.stashBytes += delta
	if sw.stashBytes > sw.peakStashBytes {
		sw.peakStashBytes = sw.stashBytes
	}
	if sw.met != nil && sw.met.stash != nil {
		sw.met.stash.Set(sw.stashBytes)
	}
}
