package serve

import (
	"fmt"
	"time"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// piece is one contiguous row range of one request assigned to a
// pipeline batch during dispatch.
type piece struct {
	pr *pendingReq
	lo int // first row within the request
	n  int
}

// batcher is the coalescing loop: it blocks for the first queued
// request, then collects more until the batch holds MaxBatch rows,
// BatchTimeout elapses, or a request with a different per-row shape
// arrives (which ends the batch and seeds the next one — requests with
// different shapes never share a batch).
//
// The deadline runs from the first request, so a lone request waits at
// most BatchTimeout and a full batch dispatches immediately.
func (s *Server) batcher() {
	defer s.wg.Done()
	nextID := 0
	var carry *request
	for {
		var first *request
		if carry != nil {
			first, carry = carry, nil
		} else {
			select {
			case <-s.done:
				return
			case first = <-s.queue:
			}
		}
		// Blocking-promote the batch seed. Safe: no other undispatched
		// request holds an in-flight slot here (the previous batch was
		// dispatched before this iteration), so a full window means the
		// wait is on dispatched requests, which always complete.
		if !s.quotaPromote(first) {
			first.resp <- result{err: ErrServerClosed}
			return
		}
		batch := []*request{first}
		rows := first.rows
		if rows < s.cfg.MaxBatch {
			timer := time.NewTimer(s.cfg.BatchTimeout)
		collect:
			for rows < s.cfg.MaxBatch {
				select {
				case <-s.done:
					timer.Stop()
					// Close flushes the queue and the pending map; the
					// requests already pulled into this batch are ours
					// to fail.
					for _, r := range batch {
						r.resp <- result{err: ErrServerClosed}
					}
					return
				case req := <-s.queue:
					// Growing a batch must never block on the quota —
					// batch members already hold in-flight slots and
					// complete only after dispatch, so a blocking wait
					// here could be on this very batch (deadlock). A
					// full window instead ends the batch: the request
					// carries over and blocking-promotes as the next
					// seed, after this batch has been dispatched.
					// Requests for different heads travel different stage
					// routes, so they never share a batch either.
					if req.head != first.head || !s.quotaTryPromote(req) || !sameRowShape(req.x, first.x) {
						carry = req
						break collect
					}
					batch = append(batch, req)
					rows += req.rows
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		s.met.queueDepth.Set(int64(len(s.queue)))
		nextID = s.dispatch(batch, nextID)
	}
}

// dispatch chops the logical concatenation of the batch's rows into
// pipeline batches of at most MaxBatch rows and sends each to stage 0,
// tagged with a fresh batch id the demultiplexer routes responses by.
// It returns the next unused batch id.
//
// A request larger than MaxBatch spans several pipeline batches; several
// small requests share one. Single-request batches send the request's
// tensor (or a zero-copy row-range alias of it); only multi-request
// batches gather rows into a pooled tensor first. Send only borrows its
// tensor, so once this loop has ended nothing reads a request's tensor.
//
// Each send first takes a MaxInFlight semaphore slot (released by the
// demultiplexer), so a slow pipeline pushes backpressure here rather
// than queueing without bound inside the transport.
func (s *Server) dispatch(batch []*request, nextID int) int {
	prs := make([]*pendingReq, len(batch))
	for i, r := range batch {
		prs[i] = &pendingReq{req: r, remaining: r.rows, firstID: nextID}
	}
	// Assign request row ranges to pipeline batches.
	var chunks [][]piece
	var cur []piece
	curRows := 0
	for _, pr := range prs {
		off := 0
		for off < pr.req.rows {
			n := s.cfg.MaxBatch - curRows
			if left := pr.req.rows - off; left < n {
				n = left
			}
			cur = append(cur, piece{pr: pr, lo: off, n: n})
			curRows += n
			off += n
			if curRows == s.cfg.MaxBatch {
				chunks = append(chunks, cur)
				cur, curRows = nil, 0
			}
		}
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	// Board every pipeline batch of this dispatch onto the current weight
	// version in one step. Stamping once per dispatch (not per chunk)
	// guarantees a request split across several pipeline batches never
	// straddles a hot-swap: all its chunks run the same generation.
	v := s.acquireVersion(len(chunks))
	for _, pr := range prs {
		pr.gen = v.gen
	}
	rowSize := batch[0].x.Size() / batch[0].x.Dim(0)
	for _, ps := range chunks {
		rows := 0
		for _, p := range ps {
			rows += p.n
		}
		x := assemble(ps, rows, rowSize)
		info := &batchInfo{rows: rows, ver: v, segs: make([]segment, len(ps))}
		src := 0
		for i, p := range ps {
			info.segs[i] = segment{pr: p.pr, srcRow: src, dstRow: p.lo, n: p.n}
			src += p.n
		}
		select {
		case s.inflight <- struct{}{}:
		case <-s.done:
			// Left for Close to fail once this loop has exited: failing the
			// request here would hand its tensor back to the caller while a
			// later chunk has still to be assembled from it.
			s.mu.Lock()
			s.pending[nextID] = info
			s.mu.Unlock()
			nextID++
			continue
		}
		s.mu.Lock()
		s.pending[nextID] = info
		s.mu.Unlock()
		s.met.batches.Inc()
		s.met.batchRows.Observe(float64(rows))
		err := s.tr.Send(0, transport.Message{
			Kind:      transport.Activation,
			Minibatch: nextID,
			Version:   v.gen,
			Tensor:    x,
			Sink:      batch[0].head, // all requests of a batch share one head
		})
		if len(ps) > 1 {
			tensor.Put(x) // assemble's gather, not a request's tensor
		}
		if err != nil {
			<-s.inflight
			s.mu.Lock()
			delete(s.pending, nextID)
			s.mu.Unlock()
			s.failBatch(info, fmt.Errorf("serve: batch %d lost: %v: %w", nextID, err, ErrTransport))
			// The demultiplexer will never see this batch; drop its
			// version reference here.
			s.releaseVersion(v)
		}
		nextID++
	}
	return nextID
}

// assemble builds the input tensor for one pipeline batch. One piece
// covering a whole request passes the request tensor through; one piece
// covering a row range aliases the range zero-copy (tensor.FromSlice
// does not copy); multiple pieces copy rows into a pooled tensor that
// dispatch releases after the send.
func assemble(ps []piece, rows, rowSize int) *tensor.Tensor {
	if len(ps) == 1 {
		p := ps[0]
		if p.n == p.pr.req.rows {
			return p.pr.req.x
		}
		shape := append([]int{p.n}, p.pr.req.x.Shape[1:]...)
		return tensor.FromSlice(p.pr.req.x.Data[p.lo*rowSize:(p.lo+p.n)*rowSize], shape...)
	}
	shape := append([]int{rows}, ps[0].pr.req.x.Shape[1:]...)
	x := tensor.GetRaw(shape...) // the pieces cover every row
	dst := 0
	for _, p := range ps {
		copy(x.Data[dst:], p.pr.req.x.Data[p.lo*rowSize:(p.lo+p.n)*rowSize])
		dst += p.n * rowSize
	}
	return x
}

// failBatch delivers err to every request of the batch that has not
// already been answered.
func (s *Server) failBatch(info *batchInfo, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range info.segs {
		s.failPendingLocked(seg.pr, err)
	}
}

// failPendingLocked marks pr failed and delivers err, exactly once per
// request even when the request spans several pipeline batches. Callers
// hold s.mu.
func (s *Server) failPendingLocked(pr *pendingReq, err error) {
	if pr.failed {
		return
	}
	pr.failed = true
	pr.req.resp <- result{err: err}
}
