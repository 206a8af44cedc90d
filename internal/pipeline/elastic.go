package pipeline

import (
	"errors"
	"fmt"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/transport"
)

// ReplanFunc re-runs the partitioner for a changed topology: given the
// number of live workers, it returns the plan training should continue
// on. The returned plan must use exactly that many workers — the elastic
// runtime assigns one stage worker per live node.
type ReplanFunc func(workers int) (*partition.Plan, error)

// TransportFactory builds the transport for one plan incarnation of the
// elastic runtime (numWorkers stage workers, per-inbox buffer depth).
// Nil selects in-process channels. The elastic runtime owns the returned
// transport and closes it at the next rescale barrier.
type TransportFactory func(numWorkers, buffer int) (transport.Transport, error)

// ElasticConfig wires a membership view and a replanner into the elastic
// training runtime.
type ElasticConfig struct {
	// View is the membership view rescaling follows. Required.
	View *membership.View
	// Replan re-runs the partitioner when membership changes. Required.
	Replan ReplanFunc
	// MinWorkers is the fewest live workers training will run on; when
	// membership drops below it the runtime drains and blocks until
	// enough workers rejoin (or WaitTimeout expires). Default 1.
	MinWorkers int
	// WaitTimeout bounds how long a rescale waits for a stable
	// membership of at least MinWorkers. Default 30s.
	WaitTimeout time.Duration
	// NewTransport builds each plan incarnation's transport; nil uses
	// in-process channels. Tests inject chaos wrappers here.
	NewTransport TransportFactory
}

// RescaleStats records one elastic rescale: which membership epoch it
// served, how the worker count changed, and where the latency went.
type RescaleStats struct {
	// Epoch is the membership epoch the new plan serves.
	Epoch uint64
	// FromWorkers and ToWorkers are the worker counts before and after.
	FromWorkers, ToWorkers int
	// Cursor is the minibatch the rescaled run resumed from.
	Cursor int
	// Drain is the time from the triggering event (membership change, or
	// the chunk failure that revealed it) until the old pipeline was
	// fully drained and torn down.
	Drain time.Duration
	// Replan is the time spent waiting for a stable admissible membership plus
	// re-running the partitioner and reloading the full model state.
	Replan time.Duration
	// Restart covers building the new pipeline, re-slicing the model
	// onto it, and rewriting the resume checkpoint in the new shape.
	Restart time.Duration
}

// String renders one rescale as a log line.
func (r RescaleStats) String() string {
	return fmt.Sprintf("rescale @mb %d: %d→%d workers (epoch %d), drain %s, replan %s, restart %s",
		r.Cursor, r.FromWorkers, r.ToWorkers, r.Epoch,
		roundDur(r.Drain), roundDur(r.Replan), roundDur(r.Restart))
}

// Elastic is the rescale controller: a training runtime that follows a
// membership view, draining to a checkpoint barrier and repartitioning
// onto the live worker set whenever membership changes. It distinguishes
// two failure outcomes: a fault with membership intact restores onto the
// SAME plan (the classic recovery path), while a fault that coincides
// with a membership change — a worker gone past redial, or a new worker
// admitted — reassembles the full model from checkpoint shards
// (plan-independent), re-runs the partitioner, and resumes from the
// saved cursor on the new plan.
type Elastic struct {
	opts Options
	cfg  ElasticConfig

	p     *Pipeline
	tr    transport.Transport
	nodes []int // live node IDs backing the current plan, worker w ↔ nodes[w]
	epoch uint64

	cursor   int
	rescales int
	// built marks that at least one plan was constructed, so the next
	// construction is a rescale (reported in stats), not cold start.
	built bool
}

// NewElastic validates options and builds the controller. The pipeline
// itself is built lazily at the first Train call (and after every
// membership change), so workers may still be joining the view when
// NewElastic returns. Elastic training requires the checkpoint path:
// CheckpointDir, CheckpointEvery > 0, and MaxRecoveries >= 1.
func NewElastic(opts Options, cfg ElasticConfig) (*Elastic, error) {
	if opts.ModelFactory == nil || opts.Loss == nil || opts.NewOptimizer == nil {
		return nil, fmt.Errorf("pipeline: ModelFactory, Loss, and NewOptimizer are required")
	}
	if cfg.View == nil || cfg.Replan == nil {
		return nil, fmt.Errorf("pipeline: elastic training needs a membership view and a replan function")
	}
	if opts.CheckpointDir == "" || opts.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("pipeline: elastic training needs CheckpointDir and CheckpointEvery (the rescale barrier)")
	}
	if opts.MaxRecoveries < 1 {
		return nil, fmt.Errorf("pipeline: elastic training needs MaxRecoveries >= 1")
	}
	if opts.Transport != nil {
		return nil, fmt.Errorf("pipeline: the elastic runtime owns its transports; use ElasticConfig.NewTransport")
	}
	if cfg.MinWorkers < 1 {
		cfg.MinWorkers = 1
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 30 * time.Second
	}
	e := &Elastic{opts: opts, cfg: cfg}
	if opts.Metrics != nil {
		opts.Metrics.Counter("pipeline.rescales")
		opts.Metrics.Gauge("pipeline.membership_epoch")
	}
	return e, nil
}

// Cursor returns the global minibatch index the next Train call resumes
// from.
func (e *Elastic) Cursor() int { return e.cursor }

// Plan returns the plan of the current incarnation (nil before the first
// Train call).
func (e *Elastic) Plan() *partition.Plan {
	if e.p == nil {
		return nil
	}
	return e.p.Plan()
}

// Rescales returns how many times the controller has replanned over its
// lifetime.
func (e *Elastic) Rescales() int { return e.rescales }

// CollectModel assembles the current weights into a fresh single-worker
// model; before the first Train call it loads them from the checkpoint
// directory.
func (e *Elastic) CollectModel() (*nn.Sequential, error) {
	if e.p != nil {
		return e.p.CollectModel(), nil
	}
	model, _, err := checkpoint.LoadModel(e.opts.CheckpointDir, e.opts.ModelFactory)
	return model, err
}

// Close tears down the current pipeline incarnation and its transport.
func (e *Elastic) Close() error {
	e.teardown()
	return nil
}

// teardown closes the current incarnation's transport and drops the
// pipeline; ensure rebuilds both against the then-current membership.
func (e *Elastic) teardown() {
	if e.tr != nil {
		e.tr.Close()
		e.tr = nil
	}
	e.p = nil
}

// sameNodes reports whether two ascending node-ID slices are equal — the
// debounce-friendly membership comparison: a worker that flapped away
// and back yields the same set and therefore no rescale, even though the
// epoch advanced.
func sameNodes(a, b []int) bool {
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

// ensure (re)builds the pipeline incarnation when none is live: it waits
// for a stable membership of at least MinWorkers, re-runs the
// partitioner for that many workers, reassembles the full model state
// from checkpoint shards, re-slices it onto the new plan, and rewrites
// the resume generation in the new plan's shape (so a later same-plan
// recovery validates against it). drained is the time the teardown that
// preceded this rebuild took, for the rescale's latency split. A
// generation older than start, the minibatch the Train call began at,
// is an error: its minibatches were reported by an earlier call.
func (e *Elastic) ensure(rep *Report, drained time.Duration, start int) error {
	if e.p != nil {
		return nil
	}
	fromWorkers := len(e.nodes)
	t0 := time.Now()
	members, epoch, err := e.cfg.View.WaitStable(e.cfg.MinWorkers, e.cfg.WaitTimeout)
	if err != nil {
		return fmt.Errorf("pipeline: rescale: %w", err)
	}
	nodes := make([]int, len(members))
	for i, m := range members {
		nodes[i] = m.ID
	}
	plan, err := e.cfg.Replan(len(nodes))
	if err != nil {
		return fmt.Errorf("pipeline: rescale replan for %d workers: %w", len(nodes), err)
	}
	if plan.Workers != len(nodes) {
		return fmt.Errorf("pipeline: replan returned a %d-worker plan for %d live nodes", plan.Workers, len(nodes))
	}
	opts := e.opts
	opts.Plan = plan
	full, err := checkpoint.LoadFullState(opts.CheckpointDir, opts.ModelFactory)
	if errors.Is(err, checkpoint.ErrNoGeneration) {
		full, err = nil, nil // nothing written yet: start from e.cursor
	} else if err == nil && full.Cursor < start {
		err = fmt.Errorf("checkpoint generation %d predates this Train call (start %d)", full.Cursor, start)
	}
	if err != nil {
		return fmt.Errorf("pipeline: rescale: %w", err)
	}
	replanDur := time.Since(t0)

	t1 := time.Now()
	p, err := newPipeline(opts, e.cfg.NewTransport)
	if err != nil {
		return fmt.Errorf("pipeline: rescale: %w", err)
	}
	tr := p.tr
	if full != nil {
		if err := p.adoptFullState(full); err != nil {
			tr.Close()
			return fmt.Errorf("pipeline: rescale: %w", err)
		}
		e.cursor = full.Cursor
		// Rewrite the resume generation in the new plan's shape: the
		// newest on-disk generation still describes the old plan, and a
		// same-plan recovery on the new incarnation must find a
		// generation that validates against it.
		if err := p.checkpointAt(opts.CheckpointDir, full.Cursor); err != nil {
			tr.Close()
			return fmt.Errorf("pipeline: rescale: %w", err)
		}
	} else {
		p.cursor = e.cursor
	}
	restartDur := time.Since(t1)

	if e.built {
		e.rescales++
		rs := RescaleStats{
			Epoch: epoch, FromWorkers: fromWorkers, ToWorkers: len(nodes),
			Cursor: e.cursor, Drain: drained, Replan: replanDur, Restart: restartDur,
		}
		if rep != nil {
			rep.Rescales = append(rep.Rescales, rs)
		}
		if e.opts.Metrics != nil {
			e.opts.Metrics.Counter("pipeline.rescales").Inc()
		}
	}
	if e.opts.Metrics != nil {
		e.opts.Metrics.Gauge("pipeline.membership_epoch").Set(int64(epoch))
	}
	e.p, e.tr, e.nodes, e.epoch, e.built = p, tr, nodes, epoch, true
	return nil
}

// replanRequired decides, after a failed chunk, between today's
// restore-on-the-same-plan path and a full replan. It gives the failure
// detector one convergence window (heartbeat timeout + debounce) to
// evict whoever died; if the live set then differs from the plan's —
// or membership is still in motion — the failure is a membership event
// and the caller must replan. A stable, unchanged membership means the
// fault was transient (a dropped message, a hiccup) and the same plan
// can recover.
func (e *Elastic) replanRequired() bool {
	v := e.cfg.View
	if v == nil {
		return false
	}
	mc := v.Config()
	window := mc.HeartbeatTimeout + mc.Debounce + 20*time.Millisecond
	deadline := time.Now().Add(window)
	for {
		now := time.Now()
		v.Sweep(now)
		if !sameNodes(v.AliveIDs(), e.nodes) {
			return true
		}
		if now.After(deadline) {
			return !v.Stable(now)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Train processes the next `minibatches` minibatches through whatever
// plan incarnations membership allows, rescaling at checkpoint barriers
// as workers join and leave, and returns when every minibatch has been
// trained. Chunks failed mid-rescale are re-run from the last checkpoint
// cursor, so Losses is fully populated on success.
//
// It is the one chunk loop of both runtimes: a static Pipeline's Train
// runs it with no membership view, so a failure never replans and no
// barrier rescales. Each chunk ends at a barrier (every CheckpointEvery
// minibatches when periodic checkpointing is on, else the call's end)
// that writes a generation; a failed chunk restores from the newest one,
// up to MaxRecoveries consecutive times.
func (e *Elastic) Train(ds data.Dataset, minibatches int) (*Report, error) {
	if minibatches <= 0 {
		return nil, fmt.Errorf("pipeline: minibatches = %d", minibatches)
	}
	start := e.cursor
	end := start + minibatches
	periodic := e.opts.CheckpointDir != "" && e.opts.CheckpointEvery > 0
	every := minibatches
	if periodic {
		every = e.opts.CheckpointEvery
	}
	losses := make([]float64, minibatches)
	rep := &Report{Losses: losses}
	t0 := time.Now()
	if e.opts.OpLog != nil {
		e.opts.OpLog.SetOrigin(t0)
	}
	recoveries, ckptWrites := 0, 0
	// consecFailures counts failed chunks since the last clean one.
	// MaxRecoveries bounds this consecutive count, not the lifetime
	// total: a long run surviving sporadic, spaced-out faults keeps
	// recovering, while a fault loop that never completes a chunk still
	// surfaces after MaxRecoveries attempts.
	consecFailures := 0
	drained := time.Duration(0)
	var p *Pipeline // the incarnation this call last began measuring
	for e.cursor < end {
		if err := e.ensure(rep, drained, start); err != nil {
			return nil, err
		}
		drained = 0
		if p != e.p {
			// This call's first incarnation, or a rescaled one: open its
			// measurement window, and seed an initial generation so the
			// first failure (and the first replan) has something to restore.
			p = e.p
			p.beginRun()
			if p.autoRecover() {
				if seeded, err := p.seedCheckpoint(e.cursor); err != nil {
					return nil, err
				} else if seeded {
					ckptWrites++
				}
			}
		}
		ce := min(e.cursor+every, end)
		if err := p.runChunk(ds, e.cursor, ce, start, losses); err != nil {
			failedAt := time.Now()
			if e.replanRequired() {
				e.teardown()
				drained = time.Since(failedAt)
				continue
			}
			consecFailures++
			if !p.autoRecover() || consecFailures > e.opts.MaxRecoveries {
				return nil, err
			}
			recoveries++
			restored, rerr := p.recoverFromCheckpoint()
			if rerr != nil {
				return nil, fmt.Errorf("pipeline: recovery after %v: %w", err, rerr)
			}
			// A generation older than this call's start (a peer process died
			// before writing its shard of the newest one) replays the gap;
			// runChunk drops those minibatches' losses.
			e.cursor = restored
			continue
		}
		consecFailures = 0
		e.cursor, p.cursor = ce, ce
		if periodic {
			if err := p.checkpointAt(e.opts.CheckpointDir, ce); err != nil {
				return nil, err
			}
			ckptWrites++
		}
		// Rescale barrier: the chunk drained and a consistent checkpoint
		// is on disk. If the stable membership no longer matches the
		// plan's nodes, retire this incarnation; a set still in motion
		// (mid-debounce flap) keeps training on the current plan.
		if v := e.cfg.View; v != nil {
			now := time.Now()
			v.Sweep(now)
			if v.Stable(now) && !sameNodes(v.AliveIDs(), e.nodes) {
				drained = now.Sub(v.LastChange())
				e.teardown()
			}
		}
	}
	rep.WallTime = time.Since(t0)
	rep.Samples = minibatches * ds.Batch(start).X.Dim(0)
	rep.MembershipEpoch = e.epoch
	p.finishReport(rep, recoveries, ckptWrites)
	return rep, nil
}

// adoptFullState re-slices a reassembled full model (and optimizer
// state) onto this pipeline's plan: each worker copies its stage's layer
// range of parameters, restores the matching optimizer state, and
// recomputes its update counter from the cursor and its round-robin
// minibatch ownership. This is how a rescaled pipeline resumes training
// from a checkpoint written under a different plan.
func (p *Pipeline) adoptFullState(st *checkpoint.FullState) error {
	offs := paramOffsetsOf(st.Model)
	fullParams := st.Model.Params()
	for _, sw := range p.workers {
		spec := p.opts.Plan.Stages[sw.stage]
		lo, hi := offs[spec.FirstLayer], offs[spec.LastLayer+1]
		src := fullParams[lo:hi]
		params := sw.model.Params()
		if len(params) != len(src) {
			return fmt.Errorf("pipeline: adopt stage %d: %d params in checkpoint slice, model has %d",
				sw.stage, len(src), len(params))
		}
		for i, pt := range params {
			if pt.Size() != src[i].Size() {
				return fmt.Errorf("pipeline: adopt stage %d: param %d has %d values, model has %d",
					sw.stage, i, src[i].Size(), pt.Size())
			}
			pt.CopyFrom(src[i])
		}
		if st.OptState != nil {
			if stateful, ok := sw.opt.(nn.Stateful); ok {
				stateful.RestoreState(params, st.OptState[lo:hi])
			}
		}
		sw.updates = ownedCount(st.Cursor, sw.replica, spec.Replicas)
		sw.weights.reset(sw.reflected())
	}
	p.cursor = st.Cursor
	return nil
}

// paramOffsetsOf returns, per layer, the index of the layer's first
// parameter tensor in model.Params(), with one trailing entry holding
// the total — the translation from a plan's layer range to a slice of
// the full model's flattened parameter list.
func paramOffsetsOf(model *nn.Sequential) []int {
	offs := make([]int, len(model.Layers)+1)
	n := 0
	for i, l := range model.Layers {
		offs[i] = n
		n += len(l.Params())
	}
	offs[len(model.Layers)] = n
	return offs
}

// ownedCount returns how many of the minibatches in [0, cursor) the
// given replica owns under round-robin routing — the update count a
// freshly adopted worker must report so staleness metrics and
// vertical-sync version tags stay consistent after a rescale.
func ownedCount(cursor, replica, replicas int) int {
	if replicas < 1 {
		return cursor
	}
	n := cursor / replicas
	if cursor%replicas > replica {
		n++
	}
	return n
}
