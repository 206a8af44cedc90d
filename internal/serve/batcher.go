package serve

import (
	"fmt"
	"runtime"
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

// batcher is the coalescing loop, and it is work-conserving: it blocks
// for the first queued request, takes whatever else is queued (or, after
// one yield, about to be) and dispatches the moment stage 0 has nothing
// queued or running. Only while stage 0 is busy — a dispatch could not
// start sooner — does it keep collecting, until the batch holds MaxBatch
// rows, BatchTimeout has passed since it began to wait, or stage 0 goes
// idle. A request that cannot join (see admit) seeds the next batch.
func (s *Server) batcher() {
	defer s.wg.Done()
	nextID := 0
	var carry *request
	// One timer serves every wait; past Go 1.23 a stopped or reset timer
	// never delivers a stale tick, so there is nothing to drain.
	timer := time.NewTimer(s.cfg.BatchTimeout)
	timer.Stop()
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
		armed, yielded := false, false // the timer runs only once the batch waits
	collect:
		for rows < s.cfg.MaxBatch {
			var req *request
			select {
			case req = <-s.queue:
			default:
				// Empty — but on a saturated core the submitters that would
				// fill it are runnable and have not run: channel hand-offs run
				// batcher, stages and demux ahead of them, one request at a
				// time (BenchmarkServeDynamic on one core: 8.6 µs/op, as if
				// unbatched; 1.6 with this yield, which an idle core makes free).
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue collect
				}
				// The busy count is read afresh on every pass: a stale wake
				// token costs one re-check, and a wake-up after this load is
				// not lost, its token is in the channel.
				if s.stage0Busy.Load() == 0 {
					break collect
				}
				if !armed {
					timer.Reset(s.cfg.BatchTimeout)
					armed = true
				}
				select {
				case <-s.done:
					// Close flushes the queue and the pending map; the
					// requests already pulled into this batch are ours
					// to fail.
					for _, r := range batch {
						r.resp <- result{err: ErrServerClosed}
					}
					return
				case req = <-s.queue:
				case <-s.stage0Idle:
					continue collect
				case <-timer.C:
					break collect
				}
			}
			if !s.admit(first, req) {
				carry = req
				break collect
			}
			batch = append(batch, req)
			rows += req.rows
		}
		timer.Stop()
		s.met.queueDepth.Set(int64(len(s.queue)))
		nextID = s.dispatch(batch, nextID)
	}
}

// admit reports whether req may join the batch first seeds: same head
// (other heads travel other stage routes), same per-row shape, and an
// in-flight quota slot free now. Growing a batch must never block on the
// quota — its members hold slots until dispatched, so the wait could be on
// this very batch; the request carries over and blocks as the next seed.
func (s *Server) admit(first, req *request) bool {
	return req.head == first.head && s.quotaTryPromote(req) && sameRowShape(req.x, first.x)
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
	now := time.Now()
	for i, r := range batch {
		prs[i] = &pendingReq{req: r, remaining: r.rows, firstID: nextID}
		s.met.observeBatchWait(r.enq, now, s.client, nextID)
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
	// Stamp every pipeline batch of this dispatch with the current weight
	// version. Loading it once per dispatch (not per chunk) guarantees a
	// request split across several pipeline batches never straddles a
	// hot-swap: all its chunks run the same generation.
	v := s.current.Load()
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
		s.stage0Busy.Add(1)
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
			s.stage0Busy.Add(-1) // stage 0 will never see it
			<-s.inflight
			s.mu.Lock()
			delete(s.pending, nextID)
			s.mu.Unlock()
			s.failBatch(info, fmt.Errorf("serve: batch %d lost: %v: %w", nextID, err, ErrTransport))
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
// request even when the request spans several pipeline batches, and puts
// back the response it was assembling. Callers hold s.mu.
func (s *Server) failPendingLocked(pr *pendingReq, err error) {
	if pr.failed {
		return
	}
	pr.failed = true
	tensor.Put(pr.out)
	pr.out = nil
	pr.req.resp <- result{err: err}
}
