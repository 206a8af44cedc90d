package pipeline

import (
	"fmt"
	"time"

	"pipedream/internal/tensor"
)

// This file is a stage worker's gradient sync across replicas (the
// overlapped ring) and the optimizer step that follows it.

// roundOf returns the participant count and globally unique key of the
// all-reduce round minibatch mb belongs to: with round-robin routing,
// blocks of `replicas` consecutive minibatches from the Train window's
// start land on distinct replicas, and the block's first minibatch index
// names the round — its replica is the round's first rank, so a window
// may start and end anywhere.
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
// before-first-bucket-completion vs tail and records per-bucket waits;
// uninstrumented, it reads no clock.
func (sw *stageWorker) drainRing(ab *runAbort) error {
	r := sw.ring
	var t0, last time.Time
	if sw.met != nil {
		t0 = time.Now()
		last = t0
	}
	total := r.NumBuckets()
	prevDone := r.CompletedBuckets()
	firstSeen := prevDone > 0 || r.Idle()
	var firstDur time.Duration
	for !r.Idle() {
		if err := sw.waitMsg(ab, false); err != nil {
			return err
		}
		if sw.ringErr != nil {
			err := sw.ringErr
			sw.ringErr = nil
			return err
		}
		if sw.met == nil {
			continue
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
// and writes the next over the gradient arena, which a freed version's
// array replaces — honouring gradient accumulation: with
// GradAccumulation = N, gradients of N consecutive minibatches are
// averaged into one update, written over the accumulator. The version
// counter still advances every minibatch so vertical-sync tags stay
// aligned across stages. Versions no forward can ask for any more leave
// the table.
func (sw *stageWorker) applyUpdate() {
	sw.updates++
	if n := sw.p.opts.GradAccumulation; n <= 1 {
		sw.gradArena = sw.weights.step(sw.opt, sw.grads, sw.reflected())
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
			sw.accum = sw.weights.step(sw.opt, sw.accumViews, sw.reflected())
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
	horizon := sw.reflected() - sw.p.opts.Plan.Depth*len(sw.p.assign.StageWorkers[0]) - sw.replicas() - 1
	if horizon < min {
		min = horizon
	}
	return min
}
