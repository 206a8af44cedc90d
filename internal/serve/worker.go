package serve

import (
	"fmt"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// stageWorker is the forward loop of one pipeline stage: receive an
// activation batch (joining fan-in parts on a DAG plan), run the layer
// slice of the weight generation the batch was stamped with through the
// training forward in inference mode (Forward(x, false), its context
// discarded: there is one forward path), and forward the result along the
// batch's head route — to each downstream successor the target head
// depends on, or to the demultiplexer as a Prediction when this stage is
// the head. One goroutine per stage, so consecutive batches overlap across
// stages exactly like forward passes in the training pipeline. Stages
// outside the head's ancestor set never see the batch at all.
//
// The batch's own version (not "the current weights") is what upholds
// the hot-swap guarantee: a batch dispatched under generation N meets
// generation-N weights at this stage even if SwapModel installed N+1
// while the batch was in an upstream stage. The worker keeps the version
// of the last batch it ran and looks one up (versionOf) only for a batch
// stamped otherwise; it lets go of a version that is no longer current.
//
// A panic inside the forward pass (a shape mismatch reaching a kernel)
// or a failed join is contained to the batch. Failure travels as a
// tensor-less poison activation along the normal route — not straight to
// the demultiplexer — so fan-in stages still drain their pending parts and
// exactly one (tensor-less) Prediction reaches the demultiplexer, which
// fails the batch's requests with ErrInference while the server keeps
// serving.
func (s *Server) stageWorker(st int) {
	defer s.wg.Done()
	inbox := s.tr.Inbox(st)
	hist := s.met.stageForward[st]
	preds := s.graph.Preds(st) // ascending: the order the join combines in
	// pend holds the arrived fan-in parts of each batch, keyed batch id →
	// source stage. Entries always drain: a failed upstream branch sends a
	// tensor-less poison part instead of dropping the batch. (The one
	// exception — an upstream send error mid-fan-out, possible only while
	// the transport is closing — may strand an entry; the batch itself has
	// already been reclaimed.)
	var pend map[int]map[int]*tensor.Tensor
	if len(preds) > 1 {
		pend = make(map[int]map[int]*tensor.Tensor)
	}
	toClient := []int{s.client}
	var kept *weightVersion // the version of the last batch this stage ran
	for {
		select {
		case <-s.done:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			if m.Kind != transport.Activation {
				continue
			}
			in := m.Tensor
			if len(preds) > 1 {
				parts := pend[m.Minibatch]
				if parts == nil {
					parts = make(map[int]*tensor.Tensor, len(preds))
					pend[m.Minibatch] = parts
				}
				if _, dup := parts[m.Src]; dup {
					// Defensive: an in-edge never delivers twice; drop.
					tensor.Put(m.Tensor)
					continue
				}
				parts[m.Src] = m.Tensor
				if len(parts) < len(preds) {
					continue // hold until every in-edge has delivered
				}
				delete(pend, m.Minibatch)
				in = s.join(st, m.Minibatch, preds, parts)
			}
			// Run the version this batch was stamped with. None (a reclaimed
			// batch, or a stamp it was not dispatched under) leaves y nil, and
			// the batch fails downstream with ErrInference instead of running
			// on arbitrary weights. A nil input (poisoned upstream or failed
			// join) skips the forward pass the same way.
			start := time.Now()
			var y *tensor.Tensor
			if in != nil {
				if kept == nil || kept.gen != m.Version {
					kept = s.versionOf(m.Minibatch, m.Version)
				}
				if kept != nil {
					var fault any
					if y, fault = forward(kept.stages[st], in); fault != nil {
						s.noteFault(m.Minibatch, st, fault)
					}
				}
			}
			dur := time.Since(start)
			hist.Observe(float64(dur.Microseconds()))
			if s.met.oplog != nil {
				s.met.oplog.Record(metrics.OpEvent{
					Worker:    st,
					Stage:     st,
					Minibatch: m.Minibatch,
					Kind:      metrics.OpForward,
					Dur:       dur,
				}, start)
			}
			// Resolve where the batch goes next: to the demultiplexer as a
			// Prediction from the head itself — and, tensor-less, from a stage
			// handed an unroutable sink (a corrupt frame; Infer validates
			// heads) — and along the head's route otherwise (never empty:
			// routed stages always reach their head).
			kind, succs, sent := transport.Prediction, toClient, y
			if route, known := s.routes[m.Sink]; !known {
				sent = nil
			} else if st != m.Sink && len(route[st]) > 0 {
				kind, succs = transport.Activation, route[st]
			}
			// Forward the generation stamp and head with the batch so every
			// downstream stage resolves the same weights and route. Send only
			// borrows its tensor (transport.Transport): the output goes out as
			// it is, once per successor.
			out := transport.Message{Kind: kind,
				Minibatch: m.Minibatch, Version: m.Version, Tensor: sent, Src: st, Sink: m.Sink}
			for _, n := range succs {
				if err := s.tr.Send(n, out); err != nil {
					s.reclaimBatch(m.Minibatch, err)
					break // the batch is failed; skip the remaining fan-out
				}
			}
			// The output and the input (a delivery, or the join's result) are
			// this worker's to release once the sends have returned — one of
			// them only when the output is a view of the input (Flatten).
			if !tensor.SharesStorage(y, in) {
				tensor.Put(y)
			}
			tensor.Put(in)
			// Let go of a superseded version: it lives on only in the pending
			// batches stamped with it.
			if kept != s.current.Load() {
				kept = nil
			}
			// Stage 0 with nothing left queued wakes a coalescing batcher.
			if st == 0 && s.stage0Busy.Add(-1) == 0 {
				select {
				case s.stage0Idle <- struct{}{}:
				default:
				}
			}
		}
	}
}

// join combines one batch's fan-in parts, in ascending source order,
// through the plan's join op (partition.JoinOp.Apply, the join training
// runs) and releases the parts, this worker's deliveries, but the one a
// sum was added into. A missing (poisoned) part yields nil, and so does a
// failed join, which is noted as the batch's fault; the caller propagates
// nil downstream as poison and releases a joined result after the forward
// pass.
func (s *Server) join(st, id int, preds []int, parts map[int]*tensor.Tensor) *tensor.Tensor {
	ordered := make([]*tensor.Tensor, len(preds))
	ok := true
	for i, p := range preds {
		if ordered[i] = parts[p]; ordered[i] == nil {
			ok = false
		}
	}
	var out *tensor.Tensor
	if ok {
		var err error
		if out, _, err = s.graph.Join(st).Apply(ordered); err != nil {
			s.noteFault(id, st, err)
		}
	}
	for _, p := range ordered {
		if p != out {
			tensor.Put(p)
		}
	}
	return out
}

// forward runs one stage slice for inference — the training forward with
// train=false, its context discarded — converting a panic into a nil
// result and the recovered value so a bad batch cannot take the worker
// down. The output is the caller's (it may be a view of x). What a
// panicking forward had taken from the buffer pool is left to the
// collector.
func forward(slice *nn.Sequential, x *tensor.Tensor) (y *tensor.Tensor, fault any) {
	defer func() {
		if fault = recover(); fault != nil {
			y = nil
		}
	}()
	y, ctx := slice.Forward(x, false)
	slice.Discard(ctx)
	return y, nil
}

// noteFault keeps what a stage's forward pass panicked with, and where,
// with the batch, so the requests it fails say more than ErrInference. A
// batch's first fault wins; the poison that follows it reaches the
// demultiplexer only after this has returned.
func (s *Server) noteFault(id, st int, fault any) {
	s.mu.Lock()
	if info := s.pending[id]; info != nil && info.fault == nil {
		info.fault = fmt.Errorf("serve: stage %d: %v: %w", st, fault, ErrInference)
	}
	s.mu.Unlock()
}

// reclaimBatch is the failure path for a batch whose result can no
// longer reach the demultiplexer: a stage worker's Send failed (peer
// down, closed transport), so no Prediction will ever arrive for this
// id. It releases the batch's MaxInFlight slot — held since dispatch,
// so the receive cannot block — and fails its requests with a typed
// ErrTransport. Without it a lossy transport would leak one admission
// slot per failure and deadlock the server after MaxInFlight losses.
func (s *Server) reclaimBatch(id int, cause error) {
	<-s.inflight
	s.mu.Lock()
	info := s.pending[id]
	delete(s.pending, id)
	if info != nil {
		err := fmt.Errorf("serve: batch %d lost: %v: %w", id, cause, ErrTransport)
		for _, seg := range info.segs {
			s.failPendingLocked(seg.pr, err)
		}
	}
	s.mu.Unlock()
}

// demux is the response loop: it receives the output stage's Prediction
// messages, releases the batch's in-flight slot, and scatters the output
// rows back to the submitting requests via the batch's segment table. A
// request completes when all its rows have arrived (a split request
// needs several batches); completion records the end-to-end latency
// histogram and, when an OpLog is configured, an OpRequest span.
func (s *Server) demux() {
	defer s.wg.Done()
	inbox := s.tr.Inbox(s.client)
	for {
		select {
		case <-s.done:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			if m.Kind != transport.Prediction {
				continue
			}
			<-s.inflight
			s.mu.Lock()
			info := s.pending[m.Minibatch]
			delete(s.pending, m.Minibatch)
			if info != nil {
				s.deliverLocked(info, m.Tensor)
			}
			s.mu.Unlock()
		}
	}
}

// deliverLocked scatters one batch output to its requests. A nil output
// means a stage worker failed on this batch; its requests get
// ErrInference, wrapped with the stage and the panic when one was noted.
// Callers hold s.mu. y is the demultiplexer's delivery: handed on as the
// response of a request that is exactly the batch, released here otherwise.
//
// The model may change the row count: FlattenTime reshapes [B, T, H] to
// [B*T, H], so a batch of n input rows yields n*T output rows. As long
// as the expansion is uniform — y.Dim(0) an exact multiple of the input
// rows — every input row owns `expand` consecutive output rows and the
// segment scatter scales its offsets by that factor. A non-uniform row
// count cannot be attributed back to requests, so the batch fails with
// ErrInference rather than returning corrupt rows.
func (s *Server) deliverLocked(info *batchInfo, y *tensor.Tensor) {
	if y == nil || y.Dim(0) == 0 || y.Dim(0)%info.rows != 0 {
		err := ErrInference
		if info.fault != nil {
			err = info.fault
		}
		for _, seg := range info.segs {
			s.failPendingLocked(seg.pr, err)
		}
		tensor.Put(y)
		return
	}
	expand := y.Dim(0) / info.rows
	outRowSize := y.Size() / y.Dim(0)
	handed := false
	for _, seg := range info.segs {
		pr := seg.pr
		if pr.failed {
			continue
		}
		if pr.out == nil && seg.n == pr.req.rows && seg.n == info.rows {
			// The batch is exactly this request: hand the output through.
			pr.out = y
			pr.remaining = 0
			handed = true
		} else {
			if pr.out == nil {
				shape := append([]int{pr.req.rows * expand}, y.Shape[1:]...)
				pr.out = tensor.GetRaw(shape...) // every row is copied in before completeLocked
			}
			if pr.out.Size() != pr.req.rows*expand*outRowSize {
				// A split request saw a different expansion or row size on
				// an earlier batch; no coherent response can be assembled.
				s.failPendingLocked(pr, ErrInference)
				continue
			}
			copy(pr.out.Data[seg.dstRow*expand*outRowSize:],
				y.Data[seg.srcRow*expand*outRowSize:(seg.srcRow+seg.n)*expand*outRowSize])
			pr.remaining -= seg.n
		}
		if pr.remaining == 0 {
			s.completeLocked(pr)
		}
	}
	if !handed {
		tensor.Put(y)
	}
}

// completeLocked delivers a fully assembled response and records the
// request's end-to-end span. Callers hold s.mu; the response channel is
// buffered, so the send cannot block.
func (s *Server) completeLocked(pr *pendingReq) {
	dur := time.Since(pr.req.enq)
	s.met.latency.Observe(float64(dur.Microseconds()))
	if s.met.oplog != nil {
		s.met.oplog.Record(metrics.OpEvent{
			Worker:    s.client,
			Stage:     s.client,
			Minibatch: pr.firstID,
			Kind:      metrics.OpRequest,
			Dur:       dur,
		}, pr.req.enq)
	}
	pr.req.resp <- result{y: pr.out, gen: pr.gen}
}
