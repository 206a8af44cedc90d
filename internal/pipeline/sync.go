package pipeline

import (
	"fmt"
	"time"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// This file is a stage worker's gradient sync across replicas (overlapped
// ring or full-gradient exchange) and the optimizer step that follows it.

// roundOf returns the participant count and globally unique key of the
// all-reduce round minibatch mb belongs to: with round-robin routing,
// blocks of `replicas` consecutive minibatches from the Train window's
// start land on distinct replicas, and the block's first minibatch index
// names the round.
func (sw *stageWorker) roundOf(mb int) (participants, key int) {
	replicas := sw.replicas()
	k := (mb - sw.trainStart) / replicas
	participants = sw.trainEnd - sw.trainStart - k*replicas
	if participants > replicas {
		participants = replicas
	}
	key = sw.trainStart + k*replicas
	return participants, key
}

// pumpRing is the backward/sync overlap hook: after layer `layer`
// finishes its backward, drain queued messages (chunk deliveries advance
// the ring) and mark the layer's gradients final so its bucket can start
// reducing while earlier layers still backpropagate.
func (sw *stageWorker) pumpRing(layer int) {
	sw.drainInbox()
	if sw.ringErr != nil {
		return
	}
	if err := sw.ring.Ready(sw.gradOffsets[layer]); err != nil {
		sw.ringErr = fmt.Errorf("pipeline: worker %d ring all-reduce: %w", sw.id, err)
		if sw.curAb != nil {
			sw.curAb.fail(sw.ringErr)
		}
	}
}

// drainRing blocks until the in-flight ring round completes, routing
// unrelated messages into the normal queues so the pipeline keeps
// flowing. When instrumented it splits the wait into
// before-first-bucket-completion vs tail and records per-bucket waits.
func (sw *stageWorker) drainRing(ab *runAbort) error {
	r := sw.ring
	if sw.met == nil {
		for !r.Idle() {
			if err := sw.waitMsg(ab, false); err != nil {
				return err
			}
			if sw.ringErr != nil {
				err := sw.ringErr
				sw.ringErr = nil
				return err
			}
		}
		return nil
	}
	t0 := time.Now()
	total := r.NumBuckets()
	prevDone := r.CompletedBuckets()
	firstSeen := prevDone > 0 || r.Idle()
	var firstDur time.Duration
	last := t0
	for !r.Idle() {
		if err := sw.waitMsg(ab, false); err != nil {
			return err
		}
		if sw.ringErr != nil {
			err := sw.ringErr
			sw.ringErr = nil
			return err
		}
		done := total
		if !r.Idle() {
			done = r.CompletedBuckets()
		}
		if done > prevDone {
			now := time.Now()
			sw.met.observeBucketWait(now.Sub(last), done-prevDone)
			if !firstSeen {
				firstSeen = true
				firstDur = now.Sub(t0)
			}
			last = now
			prevDone = done
		}
	}
	sw.syncFirst = firstDur
	return nil
}

// applyUpdate steps the optimizer — it reads the latest weight version
// and writes the next — honouring gradient accumulation: with
// GradAccumulation = N, gradients of N consecutive minibatches are
// averaged into one update. The version counter still advances every
// minibatch so vertical-sync tags stay aligned across stages. Versions no
// forward can ask for any more leave the table.
func (sw *stageWorker) applyUpdate() {
	sw.updates++
	if n := sw.p.opts.GradAccumulation; n <= 1 {
		sw.weights.step(sw.opt, sw.grads, sw.reflected())
	} else {
		if sw.accum == nil {
			sw.accum = make([]float32, len(sw.gradArena))
			sw.accumViews = tensor.Views(sw.grads, sw.accum)
		}
		if sw.accumCount == 0 {
			copy(sw.accum, sw.gradArena)
		} else {
			tensor.AddInto(sw.accum, sw.accum, sw.gradArena)
		}
		sw.accumCount++
		if sw.accumCount >= n {
			tensor.ScaleInto(sw.accum, sw.accum, float32(1)/float32(sw.accumCount))
			sw.weights.step(sw.opt, sw.accumViews, sw.reflected())
			sw.accumCount = 0
		}
	}
	oldest := sw.reflected()
	if sw.mode == VerticalSync {
		oldest = sw.versionHorizon()
	}
	sw.weights.prune(oldest)
}

// reflected returns the number of globally admitted minibatches whose
// updates this worker's weights incorporate: one local update per
// round-robin round covers `replicas` minibatches.
func (sw *stageWorker) reflected() int { return sw.updates * sw.replicas() }

// exchangeGradients is the central all_reduce for replicated stages,
// between local and remote siblings alike: every replica sends its whole
// gradient arena for the round to each sibling and waits (while
// continuing to route pipeline traffic) until all participants'
// contributions arrive, then averages in place. A dead sibling surfaces
// as a send error or a watchdog trip, not a hang.
func (sw *stageWorker) exchangeGradients(mb int, ab *runAbort) error {
	replicas := sw.replicas()
	participants, first := sw.roundOf(mb) // fewer than replicas in a final partial round
	if participants <= 1 {
		return nil
	}
	round := (mb - sw.trainStart) / replicas
	for _, peer := range sw.p.assign.StageWorkers[sw.stage] {
		if peer == sw.id {
			continue
		}
		// Skip siblings whose minibatch of this round lies past the window.
		offset := (sw.p.assign.Workers[peer].Replica - first%replicas + replicas) % replicas
		if first+offset >= sw.trainEnd {
			continue
		}
		if err := sw.p.tr.Send(peer, transport.Message{
			Kind: transport.GradExchange, Minibatch: round,
			Version: sw.replica, Tensor: sw.gradFlat, // the arena itself: Send only borrows it
		}); err != nil {
			return ab.fail(fmt.Errorf("pipeline: worker %d gradient exchange round %d: %w", sw.id, round, err))
		}
	}
	// Wait for the other participants, routing unrelated messages into
	// the normal queues so the pipeline keeps flowing.
	for sw.gradExch == nil || len(sw.gradExch[round]) < participants-1 {
		if err := sw.waitMsg(ab, false); err != nil {
			return err
		}
	}
	// Sum in ascending replica index, this replica's own contribution in
	// its place: float addition is not associative, so a fixed order is
	// what makes every replica compute the same bits, run after run. The
	// own contribution is the arena itself and the sum ends up there; two
	// or more terms before it (a third replica at the earliest) are summed
	// in pooled scratch. The sum starts from its first term, not from
	// zeros: no gradient Backward writes is −0, so 0 + x is x, bit for bit.
	contribs := sw.gradExch[round]
	delete(sw.gradExch, round)
	var acc []float32
	var scratch *tensor.Tensor
	for r := 0; r < replicas; r++ {
		c := sw.gradArena
		if r != sw.replica {
			t := contribs[r]
			if t == nil {
				continue
			}
			if t.Size() != len(sw.gradArena) {
				return ab.fail(fmt.Errorf("pipeline: worker %d gradient exchange round %d: replica %d sent %d values, the stage has %d",
					sw.id, round, r, t.Size(), len(sw.gradArena)))
			}
			c = t.Data
		}
		if acc == nil {
			acc = c
			continue
		}
		dst := sw.gradArena
		if r < sw.replica {
			if scratch == nil {
				scratch = tensor.GetRaw(len(dst))
			}
			dst = scratch.Data
		}
		tensor.AddInto(dst, acc, c)
		acc = dst
	}
	tensor.Put(scratch)
	for _, c := range contribs {
		tensor.Put(c)
	}
	tensor.ScaleInto(sw.gradArena, sw.gradArena, float32(1)/float32(participants))
	return nil
}

// versionHorizon returns, under vertical sync, the oldest reflected-
// minibatch count a forward can still be tagged with: nothing older than
// this worker's oldest stashed tag, nor than the staleness horizon implied
// by the pipeline depth, is asked for again.
func (sw *stageWorker) versionHorizon() int {
	min := sw.reflected()
	for _, e := range sw.stash {
		if e.version < min {
			min = e.version
		}
	}
	// Messages still in transit can carry tags lagging by up to the total
	// number of in-flight minibatches; keep one extra round of slack per
	// replica group.
	horizon := sw.reflected() - sw.p.depth*len(sw.p.assign.StageWorkers[0]) - sw.replicas() - 1
	if horizon < min {
		min = horizon
	}
	return min
}
