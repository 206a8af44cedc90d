package collective

import (
	"math"
	"sync"
	"testing"
	"time"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// runRound drives one all-reduce round to completion: `participants`
// goroutines (the ranks from key mod R on) each contribute grads[rank],
// pumping their rings from their own inboxes exactly the way a stage
// worker does. When perLayer is true, tensors are marked ready one at a
// time from the tail (the backward/sync overlap path); otherwise all at
// once.
func runRound(t testing.TB, tr transport.Transport, rings []*RingReducer, grads [][]*tensor.Tensor, key, participants int, perLayer bool) {
	t.Helper()
	errs := make(chan error, participants)
	var wg sync.WaitGroup
	for i := 0; i < participants; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r := rings[rank]
			inbox := tr.Inbox(rank)
			pump := func() error {
				for {
					select {
					case m, ok := <-inbox:
						if !ok {
							return nil
						}
						if err := r.Deliver(m); err != nil {
							return err
						}
					default:
						return nil
					}
				}
			}
			if err := r.BeginRound(key, participants, grads[rank]); err != nil {
				errs <- err
				return
			}
			if perLayer {
				for i := len(grads[rank]) - 1; i >= 0; i-- {
					if err := pump(); err != nil {
						errs <- err
						return
					}
					if err := r.Ready(i); err != nil {
						errs <- err
						return
					}
				}
			} else if len(grads[rank]) > 0 {
				if err := r.Ready(0); err != nil {
					errs <- err
					return
				}
			}
			deadline := time.After(10 * time.Second)
			for !r.Idle() {
				select {
				case m, ok := <-inbox:
					if !ok {
						errs <- nil
						return
					}
					if err := r.Deliver(m); err != nil {
						errs <- err
						return
					}
				case <-deadline:
					t.Errorf("rank %d: round %d did not complete", rank, key)
					return
				}
			}
		}((key + i) % len(rings))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("ring round %d: %v", key, err)
		}
	}
}

// makeRings builds one ring per replica over a fresh in-process transport.
func makeRings(replicas, bucketBytes int) (*transport.Channels, []*RingReducer) {
	tr := transport.NewChannels(replicas, 256)
	peers := make([]int, replicas)
	for i := range peers {
		peers[i] = i
	}
	rings := make([]*RingReducer, replicas)
	for r := range rings {
		rings[r] = NewRingReducer(r, peers, tr, bucketBytes)
	}
	return tr, rings
}

// cloneGrads deep-copies a per-replica gradient set.
func cloneGrads(src [][]*tensor.Tensor) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(src))
	for r, ts := range src {
		for _, g := range ts {
			out[r] = append(out[r], g.Clone())
		}
	}
	return out
}

// naiveAverage computes the sum-then-divide reference in float64.
func naiveAverage(grads [][]*tensor.Tensor, participants int) [][]float64 {
	out := make([][]float64, len(grads[0]))
	for ti := range grads[0] {
		out[ti] = make([]float64, grads[0][ti].Size())
		for i := range out[ti] {
			var s float64
			for r := 0; r < participants; r++ {
				s += float64(grads[r][ti].Data[i])
			}
			out[ti][i] = s / float64(participants)
		}
	}
	return out
}

func TestRingTwoReplicasExactAverage(t *testing.T) {
	tr, rings := makeRings(2, 64)
	defer tr.Close()
	grads := [][]*tensor.Tensor{
		{tensor.FromSlice([]float32{1, 2, 3, 4}, 4), tensor.FromSlice([]float32{10}, 1)},
		{tensor.FromSlice([]float32{3, 2, 1, 0}, 4), tensor.FromSlice([]float32{-10}, 1)},
	}
	runRound(t, tr, rings, grads, 0, 2, false)
	want := [][]float32{{2, 2, 2, 2}, {0}}
	for r := 0; r < 2; r++ {
		for ti, w := range want {
			for i, v := range w {
				if grads[r][ti].Data[i] != v {
					t.Fatalf("replica %d tensor %d[%d] = %g, want %g", r, ti, i, grads[r][ti].Data[i], v)
				}
			}
		}
	}
	if rings[0].WireBytes() == 0 {
		t.Fatal("no bytes recorded on the wire")
	}
}

func TestRingPartialRoundUsesSubsetOfReplicas(t *testing.T) {
	// 3 replicas configured, but the final round has only 2 participants.
	tr, rings := makeRings(3, 1<<20)
	defer tr.Close()
	grads := [][]*tensor.Tensor{
		{tensor.FromSlice([]float32{2, 4, 6, 8, 10}, 5)},
		{tensor.FromSlice([]float32{0, 0, 2, 2, 2}, 5)},
		{tensor.FromSlice([]float32{99, 99, 99, 99, 99}, 5)}, // not a participant
	}
	runRound(t, tr, rings, grads, 6, 2, false)
	want := []float32{1, 2, 4, 5, 6}
	for r := 0; r < 2; r++ {
		for i, v := range want {
			if grads[r][0].Data[i] != v {
				t.Fatalf("replica %d [%d] = %g, want %g", r, i, grads[r][0].Data[i], v)
			}
		}
	}
	for i, v := range grads[2][0].Data {
		if v != 99 {
			t.Fatalf("non-participant grads mutated at %d: %g", i, v)
		}
	}
}

func TestRingOverlapPerLayerReadyConverges(t *testing.T) {
	// Layer-at-a-time Ready (the backward overlap path) must give the
	// same result as all-at-once, across several buckets and replicas.
	const replicas = 4
	base := make([][]*tensor.Tensor, replicas)
	for r := 0; r < replicas; r++ {
		for ti := 0; ti < 5; ti++ {
			g := tensor.New(17)
			for i := range g.Data {
				g.Data[i] = float32(r+1) * float32(ti*17+i) * 0.25
			}
			base[r] = append(base[r], g)
		}
	}
	allAtOnce := cloneGrads(base)
	perLayer := cloneGrads(base)

	tr1, rings1 := makeRings(replicas, 64)
	runRound(t, tr1, rings1, allAtOnce, 3, replicas, false)
	tr1.Close()

	tr2, rings2 := makeRings(replicas, 64)
	runRound(t, tr2, rings2, perLayer, 3, replicas, true)
	tr2.Close()

	for r := 0; r < replicas; r++ {
		for ti := range base[r] {
			for i := range base[r][ti].Data {
				a := allAtOnce[r][ti].Data[i]
				b := perLayer[r][ti].Data[i]
				if math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("replica %d tensor %d[%d]: all-at-once %g != per-layer %g", r, ti, i, a, b)
				}
			}
		}
	}
}

func TestRingSequentialRoundsReuseBuckets(t *testing.T) {
	tr, rings := makeRings(2, 32)
	defer tr.Close()
	grads := [][]*tensor.Tensor{
		{tensor.New(20), tensor.New(5)},
		{tensor.New(20), tensor.New(5)},
	}
	for round := 0; round < 3; round++ {
		for r := 0; r < 2; r++ {
			for _, g := range grads[r] {
				for i := range g.Data {
					g.Data[i] = float32(r + round + i)
				}
			}
		}
		runRound(t, tr, rings, grads, round*2, 2, false)
		for i := range grads[0][0].Data {
			want := (float32(0+round+i) + float32(1+round+i)) / 2
			if grads[0][0].Data[i] != want {
				t.Fatalf("round %d [%d] = %g, want %g", round, i, grads[0][0].Data[i], want)
			}
		}
	}
}

func TestRingEmptyGradientsCompleteImmediately(t *testing.T) {
	tr, rings := makeRings(2, 64)
	defer tr.Close()
	if err := rings[0].BeginRound(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if !rings[0].Idle() {
		t.Fatal("round over zero gradients should complete at BeginRound")
	}
}

func TestRingRejectsMisusedRounds(t *testing.T) {
	tr, rings := makeRings(2, 64)
	defer tr.Close()
	grads := []*tensor.Tensor{tensor.New(8)}
	if err := rings[0].BeginRound(0, 2, grads); err != nil {
		t.Fatal(err)
	}
	if err := rings[0].BeginRound(2, 2, grads); err == nil {
		t.Fatal("second BeginRound while round 0 is in flight should fail")
	}
	if err := rings[0].BeginRound(0, 1, grads); err == nil {
		t.Fatal("participants < 2 should fail")
	}
	rings[0].Reset()
	if err := rings[0].BeginRound(0, 3, grads); err == nil {
		t.Fatal("participants > peers should fail")
	}
}

func TestRingChaosDelayDupMatchesClean(t *testing.T) {
	// Heavy reordering and duplication from the chaos transport must not
	// change the result by a single bit: chunk ordering is fixed by the
	// schedule, not by arrival order.
	const replicas = 3
	base := make([][]*tensor.Tensor, replicas)
	for r := 0; r < replicas; r++ {
		for ti := 0; ti < 4; ti++ {
			g := tensor.New(33)
			for i := range g.Data {
				g.Data[i] = float32(math.Sin(float64(r*1000 + ti*100 + i)))
			}
			base[r] = append(base[r], g)
		}
	}
	clean := cloneGrads(base)
	trC, ringsC := makeRings(replicas, 128)
	runRound(t, trC, ringsC, clean, 5, replicas, true)
	trC.Close()

	noisy := cloneGrads(base)
	inner := transport.NewChannels(replicas, 256)
	chaos := transport.NewChaos(inner, transport.ChaosConfig{
		Seed: 11, DelayRate: 0.5, DupRate: 0.3, MaxDelay: 2 * time.Millisecond,
	})
	defer chaos.Close()
	peers := []int{0, 1, 2}
	rings := make([]*RingReducer, replicas)
	for r := range rings {
		rings[r] = NewRingReducer(r, peers, chaos, 128)
	}
	runRound(t, chaos, rings, noisy, 5, replicas, true)

	for r := 0; r < replicas; r++ {
		for ti := range base[r] {
			for i := range base[r][ti].Data {
				a, b := clean[r][ti].Data[i], noisy[r][ti].Data[i]
				if math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("replica %d tensor %d[%d]: clean %g != chaos %g", r, ti, i, a, b)
				}
			}
		}
	}
	var dropped int64
	for _, r := range rings {
		dropped += r.DroppedChunks()
	}
	if dropped == 0 {
		t.Log("chaos produced no duplicate deliveries this run (dedup not exercised)")
	}
}

// A chunk leaves as a view of the bucket on every transport: the only pool
// traffic of a round is the receiving side's, one tensor per chunk (the
// in-process transport's copy, TCP's decode), and the result and the bytes
// on the wire are the same over both — also when a chaos layer delays and
// duplicates the frames.
func TestRingSendsChunksInPlace(t *testing.T) {
	const replicas, rounds = 3, 4
	base := make([][]*tensor.Tensor, replicas)
	for r := 0; r < replicas; r++ {
		// The large tensor has a bucket to itself, the two small ones share
		// the other.
		for ti, n := range []int{700, 33, 40} {
			g := tensor.New(n)
			for i := range g.Data {
				g.Data[i] = float32(math.Sin(float64(r*1000 + ti*100 + i)))
			}
			base[r] = append(base[r], g)
		}
	}
	peers := []int{0, 1, 2}
	run := func(tr transport.Transport) (grads [][]*tensor.Tensor, wire, grabs int64) {
		rings := make([]*RingReducer, replicas)
		for r := range rings {
			rings[r] = NewRingReducer(r, peers, tr, 1024)
		}
		grads = cloneGrads(base)
		hits0, misses0, _ := tensor.PoolCounters()
		for round := 0; round < rounds; round++ {
			runRound(t, tr, rings, grads, round, replicas, round%2 == 0)
		}
		hits1, misses1, _ := tensor.PoolCounters()
		return grads, rings[0].WireBytes(), hits1 - hits0 + misses1 - misses0
	}
	chans := transport.NewChannels(replicas, 256)
	want, wantWire, chanGrabs := run(chans)
	chans.Close()

	tcp, err := transport.NewTCP(replicas, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, wire, grabs := run(tcp)
	tcp.Close()
	const buckets = 2
	received := int64(replicas * rounds * buckets * 2 * (replicas - 1))
	for name, g := range map[string]int64{"channels": chanGrabs, "tcp": grabs} {
		if g != received {
			t.Errorf("%s: %d tensors taken from the pool for %d received chunks: the sender copies", name, g, received)
		}
	}

	inner, err := transport.NewTCP(replicas, 256)
	if err != nil {
		t.Fatal(err)
	}
	chaos := transport.NewChaos(inner, transport.ChaosConfig{Seed: 3, DelayRate: 0.5, DupRate: 0.3, MaxDelay: 2 * time.Millisecond})
	noisy, noisyWire, _ := run(chaos)
	chaos.Close()

	for name, c := range map[string]struct {
		grads [][]*tensor.Tensor
		wire  int64
	}{"tcp": {got, wire}, "chaos over tcp": {noisy, noisyWire}} {
		if c.wire != wantWire {
			t.Errorf("%s: %d bytes on the wire, %d over channels", name, c.wire, wantWire)
		}
		for r := range want {
			for ti := range want[r] {
				for i, w := range want[r][ti].Data {
					if g := c.grads[r][ti].Data[i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("%s: replica %d tensor %d[%d] = %g, %g over channels", name, r, ti, i, g, w)
					}
				}
			}
		}
	}
}

// A bucket is a range of the gradients' one arena, reduced where it is: a
// list that is packed already stays where it is, one that is not is packed
// on the first round — the headers stay, their Data moves, once — and the
// tensors the caller holds carry the result either way. An arena that has
// moved since, with the same layout, is reduced where it is now; a list
// whose element count changed, or that is no longer one array, is refused.
func TestRingBucketsAreViewsOfTheGradientArena(t *testing.T) {
	tr, rings := makeRings(2, 64)
	defer tr.Close()
	grads := make([][]*tensor.Tensor, 2)
	for r := range grads {
		for _, n := range []int{20, 5, 0, 9} {
			grads[r] = append(grads[r], tensor.Full(float32(r+1), n))
		}
	}
	arena := tensor.Pack(grads[0]) // replica 0 arrives packed, replica 1 does not
	headers := append([]*tensor.Tensor(nil), grads[1]...)
	round := func(key int) {
		t.Helper()
		for r := range grads {
			for _, g := range grads[r] {
				g.Fill(float32(r + 1))
			}
		}
		runRound(t, tr, rings, grads, key, 2, key == 1)
		for r, ring := range rings {
			if flat, ok := tensor.Flat(grads[r]); !ok || &flat[0] != &ring.arena[0] {
				t.Fatalf("round %d: replica %d's gradients are not views of the reducer's arena", key, r)
			}
			off := 0
			for _, b := range ring.buckets {
				if len(b.data) > 0 && &b.data[0] != &ring.arena[off] {
					t.Fatalf("round %d: replica %d bucket %d is not arena[%d:]", key, r, b.index, off)
				}
				off += len(b.data)
			}
			if off != len(ring.arena) {
				t.Fatalf("replica %d: buckets cover %d of %d arena elements", r, off, len(ring.arena))
			}
			for i, g := range grads[r] {
				if r == 1 && g != headers[i] {
					t.Fatalf("packing replaced gradient header %d", i)
				}
				for j, v := range g.Data {
					if v != 1.5 {
						t.Fatalf("round %d: replica %d gradient %d[%d] = %v, want the average 1.5", key, r, i, j, v)
					}
				}
			}
		}
	}
	for key := 0; key < 2; key++ {
		round(key)
		if &rings[0].arena[0] != &arena[0] {
			t.Fatalf("round %d: replica 0's packed gradients were moved", key)
		}
	}

	moved := tensor.Pack(grads[1]) // the same layout in a new array
	round(2)
	if &rings[1].arena[0] != &moved[0] {
		t.Fatal("a round over a moved arena did not reduce into it")
	}
	if err := rings[1].BeginRound(3, 2, grads[1][:3]); err == nil {
		t.Fatal("a round over a list with another element count was accepted")
	}
	grads[1][0].Data = make([]float32, grads[1][0].Size())
	if err := rings[1].BeginRound(3, 2, grads[1]); err == nil {
		t.Fatal("a round over gradients that are no longer one array was accepted")
	}
}

// discardSender is a ring with no neighbour: what it sends goes nowhere.
type discardSender struct{}

func (discardSender) Send(int, transport.Message) error { return nil }

// Every chunk delivered to a ring is the ring's to release, on the paths
// where no reduction ever consumes it too: Reset with chunks parked (one
// for the open round, one for a round not begun), a chunk naming a bucket
// the round does not have, a chunk of the wrong size. After each, the pool
// has been given back exactly what was taken from it.
func TestRingFailurePathsReleaseChunks(t *testing.T) {
	outstanding := func() int64 {
		hits, misses, puts := tensor.PoolCounters()
		return hits + misses - puts
	}
	chunk := func(round, bucket, elems int) transport.Message {
		return transport.Message{
			Kind: transport.GradChunk, Minibatch: round, Tensor: tensor.GetRaw(elems),
			Chunk: transport.ChunkInfo{Bucket: bucket},
		}
	}
	// A two-way round over one 4-element bucket, open and not yet ready.
	openRound := func() *RingReducer {
		r := NewRingReducer(0, []int{0, 1}, discardSender{}, 0)
		if err := r.BeginRound(0, 2, []*tensor.Tensor{tensor.New(4)}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := outstanding()

	r := openRound()
	for _, m := range []transport.Message{chunk(0, 0, 2), chunk(2, 0, 2)} {
		if err := r.Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := outstanding() - base; got != 2 {
		t.Fatalf("%d chunks parked, want 2", got)
	}
	r.Reset()
	if got := outstanding() - base; got != 0 {
		t.Errorf("after Reset with two chunks parked: %d tensors not returned to the pool", got)
	}

	if err := openRound().Deliver(chunk(0, 7, 2)); err == nil {
		t.Error("chunk for bucket 7 of 1 accepted")
	}
	if got := outstanding() - base; got != 0 {
		t.Errorf("after a chunk for an unknown bucket: %d tensors not returned to the pool", got)
	}

	r = openRound()
	if err := r.Ready(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Deliver(chunk(0, 0, 3)); err == nil {
		t.Error("3-element chunk accepted for a 2-element range")
	}
	if got := outstanding() - base; got != 0 {
		t.Errorf("after a chunk of the wrong size: %d tensors not returned to the pool", got)
	}
}
