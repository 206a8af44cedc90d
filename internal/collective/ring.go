package collective

import (
	"fmt"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// RingReducer averages one replica's gradients with its siblings through
// a chunked ring all-reduce carried over transport messages, overlapping
// the reduction with the remaining backward compute.
//
// The gradients live back to back in one flat arena (tensor.Pack; a list
// that is not laid out that way is packed on the first round, which moves
// the tensors' Data and keeps their headers), and a bucket is a contiguous
// range of whole tensors that closes at the first tensor taking it to
// bucketBytes or more (only the last bucket may hold less) — a sub-slice
// of the arena, reduced where it is; each round slices the buckets from the
// arena it is handed. Because backward runs last-layer-first, the
// tail buckets become ready first: as soon as a bucket's layers have final
// gradients, the owner calls Ready and that bucket starts its ring —
// reduce-scatter (P-1 steps) then all-gather (P-1 steps), each step moving
// one 1/P-sized chunk to the right neighbor — while earlier layers are still
// backpropagating. Each replica therefore moves 2(P-1)/P of the bucket
// bytes, the cost the partitioning DP charges for replication.
//
// The reducer is deliberately single-threaded and poll-driven: it only
// progresses when its owning worker pumps it (Deliver on an incoming
// chunk, Ready after a layer's backward). Chunk c's sum accumulates in
// fixed ring order g_c, g_{c+1}, ... regardless of message timing, and
// two-operand float addition is commutative, so results are bit-identical
// run to run.
type RingReducer struct {
	rank        int
	peers       []int
	tr          Sender
	bucketBytes int

	buckets []*ringBucket // templates built on first BeginRound, reused per round
	arena   []float32     // the gradients' flat storage, which the buckets slice

	cur      *roundState
	pending  map[chunkKey]*tensor.Tensor
	lastDone int
	wire     int64
	drops    int64
}

// chunkKey identifies one expected chunk transfer: pending deliveries are
// parked here until the owning bucket's lock-step state machine reaches
// that (phase, step).
type chunkKey struct {
	round  int
	bucket int
	phase  int
	step   int
}

// roundState is the in-flight all-reduce round (at most one per reducer:
// rounds on one worker are strictly sequential).
type roundState struct {
	key          int
	participants int
	rank         int // this replica's rank in the round, counted from its first participant
	next         int // worker id of the round's next rank, which receives this one's chunks
	readyFrom    int // grads[readyFrom:] have final values
	done         int // completed buckets
}

// ringBucket is one contiguous range of gradient tensors reduced as a
// unit, in place in the gradient arena. Its chunk table persists across
// rounds (gradient shapes never change within a run).
type ringBucket struct {
	index      int
	first      int           // index of the bucket's first tensor in the grads slice
	data       []float32     // the bucket's tensors' range of the arena
	out        tensor.Tensor // header of the chunk being sent in place
	chunks     [][2]int      // per-chunk [lo, hi) element ranges into data
	chunkedFor int           // participant count the chunk table was built for

	phase int // 0 reduce-scatter, 1 all-gather, 2 complete
	step  int
	sent  bool
	ready bool
	done  bool
}

// NewRingReducer creates the reducer for the replica with the given rank.
// peers lists the worker ids of all replicas of the stage in rank order
// (peers[rank] is this worker); tr delivers chunks to their inboxes.
// bucketBytes <= 0 selects DefaultBucketBytes.
func NewRingReducer(rank int, peers []int, tr Sender, bucketBytes int) *RingReducer {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	return &RingReducer{
		rank:        rank,
		peers:       append([]int(nil), peers...),
		tr:          tr,
		bucketBytes: bucketBytes,
		pending:     make(map[chunkKey]*tensor.Tensor),
		lastDone:    -1,
	}
}

// BeginRound opens all-reduce round `key` over `participants` ranks. key
// is the global index of the round's first minibatch — unique and
// increasing — and round-robin routing puts minibatch mb on rank mb mod R,
// so the round's participants are ranks key, key+1, ... (mod R), and its
// ranks count from that first participant: a P-of-R round is a fresh
// P-peer ring in which rank i holds rank (key+i) mod R's gradients, for
// full and partial rounds alike. grads is this replica's gradient list,
// the same one every round; buckets with no elements complete immediately,
// the rest join the ring once Ready marks their layers final.
func (r *RingReducer) BeginRound(key, participants int, grads []*tensor.Tensor) error {
	if r.cur != nil {
		return fmt.Errorf("collective: ring round %d begun while round %d is incomplete", key, r.cur.key)
	}
	if key <= r.lastDone {
		return fmt.Errorf("collective: ring round key %d not after completed key %d", key, r.lastDone)
	}
	if participants < 2 || participants > len(r.peers) {
		return fmt.Errorf("collective: ring round %d over %d participants of %d peers", key, participants, len(r.peers))
	}
	first := key % len(r.peers) // key > lastDone >= -1
	rank := mod(r.rank-first, len(r.peers))
	if rank >= participants {
		return fmt.Errorf("collective: rank %d is not a participant of %d-way round %d", r.rank, participants, key)
	}
	if err := r.ensureBuckets(grads); err != nil {
		return err
	}
	st := &roundState{key: key, participants: participants, readyFrom: len(grads),
		rank: rank, next: r.peers[(first+(rank+1)%participants)%len(r.peers)]}
	r.cur = st
	if len(r.buckets) == 0 {
		// A stage with no parameters has nothing to reduce.
		r.lastDone = key
		r.cur = nil
		return nil
	}
	for _, b := range r.buckets {
		b.resetFor(participants)
		if len(b.data) == 0 {
			r.finishBucket(st, b)
		}
	}
	return nil
}

// Ready marks grads[firstFinal:] as final: every bucket fully inside that
// range starts (or continues) its ring. The pipeline calls this from the
// backward hook after each layer, and with 0 before the final drain. Calls
// after the round already completed (the overlap finished mid-backward)
// are no-ops.
func (r *RingReducer) Ready(firstFinal int) error {
	st := r.cur
	if st == nil {
		return nil
	}
	if firstFinal < 0 {
		firstFinal = 0
	}
	if firstFinal < st.readyFrom {
		st.readyFrom = firstFinal
	}
	for i := len(r.buckets) - 1; i >= 0; i-- {
		b := r.buckets[i]
		if b.ready || b.done {
			continue
		}
		if b.first < st.readyFrom {
			break // buckets are ordered; everything earlier is not final yet
		}
		b.ready = true
		if err := r.advance(st, b); err != nil {
			return err
		}
		if r.cur == nil {
			break // round completed inside advance
		}
	}
	return nil
}

// Deliver routes one incoming GradChunk message into the reducer.
// Messages for other kinds are ignored; duplicates and retransmits of
// completed rounds are dropped; chunks for future rounds are parked until
// their round begins.
func (r *RingReducer) Deliver(m transport.Message) error {
	if m.Kind != transport.GradChunk {
		return nil
	}
	k := chunkKey{round: m.Minibatch, bucket: m.Chunk.Bucket, phase: m.Chunk.Phase, step: m.Chunk.Step}
	if _, dup := r.pending[k]; dup || m.Minibatch <= r.lastDone {
		r.drops++
		tensor.Put(m.Tensor) // every delivery is a private copy
		return nil
	}
	cur := r.cur != nil && m.Minibatch == r.cur.key
	if cur && (k.bucket < 0 || k.bucket >= len(r.buckets)) {
		tensor.Put(m.Tensor)
		return fmt.Errorf("collective: round %d chunk for unknown bucket %d of %d", m.Minibatch, k.bucket, len(r.buckets))
	}
	r.pending[k] = m.Tensor
	if cur {
		return r.advance(r.cur, r.buckets[k.bucket])
	}
	return nil
}

// Idle reports whether no all-reduce round is in flight.
func (r *RingReducer) Idle() bool { return r.cur == nil }

// NumBuckets returns how many gradient buckets a round consists of (0
// before the first round).
func (r *RingReducer) NumBuckets() int { return len(r.buckets) }

// CompletedBuckets returns how many buckets of the in-flight round have
// finished reducing; when idle it reports the full bucket count.
func (r *RingReducer) CompletedBuckets() int {
	if r.cur == nil {
		return len(r.buckets)
	}
	return r.cur.done
}

// WireBytes returns the cumulative payload bytes this replica has put on
// the wire for ring chunks.
func (r *RingReducer) WireBytes() int64 { return r.wire }

// DroppedChunks returns how many duplicate or stale chunk deliveries were
// discarded.
func (r *RingReducer) DroppedChunks() int64 { return r.drops }

// Reset discards any in-flight round and parked chunks and forgets
// completed round keys — the recovery reset between a failed chunk of
// training and its retry (re-run minibatches legitimately reuse their
// round keys). Bucket layout and cumulative counters persist.
func (r *RingReducer) Reset() {
	r.cur = nil
	for _, in := range r.pending {
		tensor.Put(in)
	}
	clear(r.pending)
	r.lastDone = -1
}

// ensureBuckets builds the bucket templates over the gradients' arena on
// first use and later slices them from the arena they are in now.
func (r *RingReducer) ensureBuckets(grads []*tensor.Tensor) error {
	arena, flat := tensor.Flat(grads)
	if r.buckets != nil {
		if !flat || len(arena) != len(r.arena) {
			return fmt.Errorf("collective: gradient layout changed since the first round: %d elems (one arena: %v), had %d",
				len(arena), flat, len(r.arena))
		}
		r.arena = arena
		off := 0
		for _, b := range r.buckets {
			b.data, off = arena[off:off+len(b.data)], off+len(b.data)
		}
		return nil
	}
	if !flat {
		arena = tensor.Pack(grads)
	}
	r.arena = arena
	perBucket := r.bucketBytes / 4
	if perBucket < 1 {
		perBucket = 1
	}
	first, lo, hi := 0, 0, 0
	for i, g := range grads {
		hi += g.Size()
		if hi-lo >= perBucket || i == len(grads)-1 {
			r.buckets = append(r.buckets, &ringBucket{
				index: len(r.buckets),
				first: first,
				data:  arena[lo:hi],
			})
			first, lo = i+1, hi
		}
	}
	return nil
}

// advance runs one bucket's lock-step state machine as far as the parked
// chunks allow: send this step's chunk (once), consume the matching
// incoming chunk if it has arrived, move to the next step.
func (r *RingReducer) advance(st *roundState, b *ringBucket) error {
	if b.done || !b.ready {
		return nil
	}
	p := st.participants
	for {
		if !b.sent {
			c := b.sendChunk(st.rank, p)
			lo, hi := b.chunks[c][0], b.chunks[c][1]
			// The chunk goes out as a view of the bucket: Send only borrows
			// it, and the bucket is not touched until Send returns.
			b.out.Shape = append(b.out.Shape[:0], hi-lo)
			b.out.Data = b.data[lo:hi]
			msg := transport.Message{
				Kind:      transport.GradChunk,
				Minibatch: st.key,
				Version:   r.rank,
				Tensor:    &b.out,
				Chunk:     transport.ChunkInfo{Bucket: b.index, Phase: b.phase, Step: b.step, Chunk: c},
			}
			r.wire += int64(4 * (hi - lo))
			if err := r.tr.Send(st.next, msg); err != nil {
				return err
			}
			b.sent = true
		}
		k := chunkKey{round: st.key, bucket: b.index, phase: b.phase, step: b.step}
		in, ok := r.pending[k]
		if !ok {
			return nil // wait for the left neighbor's chunk
		}
		delete(r.pending, k)
		c := b.recvChunk(st.rank, p)
		lo, hi := b.chunks[c][0], b.chunks[c][1]
		if n := in.Size(); n != hi-lo {
			tensor.Put(in)
			return fmt.Errorf("collective: round %d bucket %d phase %d step %d: got %d elems, want %d",
				st.key, b.index, b.phase, b.step, n, hi-lo)
		}
		dst := b.data[lo:hi]
		switch {
		case b.phase == 1:
			copy(dst, in.Data)
		case b.step < p-2:
			tensor.AddInto(dst, dst, in.Data)
		default:
			// The last reduce-scatter step completes the chunk this rank
			// owns. Scaling it in the same pass, so that the all-gather
			// copies averaged values, is bit-identical to scaling the
			// whole bucket at every replica, at 1/P the multiplies.
			tensor.AddScaleInto(dst, dst, in.Data, float32(1)/float32(p))
		}
		// Consumed once per key. A duplicate, a second private copy, is dropped
		// while the original is parked, or re-parked and released at round end.
		tensor.Put(in)
		b.sent = false
		b.step++
		if b.step == p-1 {
			b.phase++
			b.step = 0
		}
		if b.phase == 2 {
			r.finishBucket(st, b)
			return nil
		}
	}
}

// finishBucket marks b complete and closes the round when it was the
// last one.
func (r *RingReducer) finishBucket(st *roundState, b *ringBucket) {
	b.done = true
	st.done++
	if st.done == len(r.buckets) {
		r.lastDone = st.key
		r.cur = nil
		for k, in := range r.pending {
			if k.round <= st.key {
				tensor.Put(in)
				delete(r.pending, k)
			}
		}
	}
}

// resetFor prepares the bucket for a new round over p participants,
// rebuilding the chunk table when the participant count changed (the
// final partial round of a training chunk).
func (b *ringBucket) resetFor(p int) {
	b.phase, b.step = 0, 0
	b.sent, b.ready, b.done = false, false, false
	if b.chunkedFor == p {
		return
	}
	b.chunkedFor = p
	b.chunks = b.chunks[:0]
	base, rem := len(b.data)/p, len(b.data)%p
	lo := 0
	for i := 0; i < p; i++ {
		n := base
		if i < rem {
			n++
		}
		b.chunks = append(b.chunks, [2]int{lo, lo + n})
		lo += n
	}
}

// sendChunk returns the chunk index this rank transmits at the bucket's
// current (phase, step); recvChunk the index it expects from its left
// neighbor. The fixed schedule is what makes the reduction order — and
// therefore the floating-point result — deterministic.
func (b *ringBucket) sendChunk(rank, p int) int {
	if b.phase == 0 {
		return mod(rank-b.step, p)
	}
	return mod(rank+1-b.step, p)
}

func (b *ringBucket) recvChunk(rank, p int) int {
	if b.phase == 0 {
		return mod(rank-b.step-1, p)
	}
	return mod(rank-b.step, p)
}

func mod(a, p int) int {
	a %= p
	if a < 0 {
		a += p
	}
	return a
}
