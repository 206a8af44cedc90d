package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"pipedream/internal/tensor"
)

// stamp fills t with values derived from (id, index), so a receiver can
// check every element of a delivered tensor knowing only the message's
// minibatch number.
func stamp(t *tensor.Tensor, id int) {
	for i := range t.Data {
		t.Data[i] = float32(id*31 + i%977)
	}
}

func stamped(t *tensor.Tensor, id int) bool {
	for i, v := range t.Data {
		if v != float32(id*31+i%977) {
			return false
		}
	}
	return true
}

// A warmed TCP round trip of a 1 MB activation allocates nothing the size
// of the payload on either side: the sender hands the kernel the tensor's
// storage, the receiver decodes into a pooled tensor that its consumer
// recycles. What is left is labels and channel bookkeeping.
func TestTCPRoundTripAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	tr, err := NewTCP(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // worker 1 echoes, then recycles what it received
		defer wg.Done()
		for m := range tr.Inbox(1) {
			if tr.Send(0, m) != nil {
				return
			}
			tensor.Put(m.Tensor)
		}
	}()
	defer func() {
		tr.Close()
		wg.Wait()
	}()
	const elems = 16 * 32 * 512 // train-comm's 1 MB activation
	payload := tensor.New(16, 32, 512)
	stamp(payload, 1)
	labels := make([]int, 16)
	trip := func() {
		if err := tr.Send(1, Message{Kind: Activation, Minibatch: 1, Tensor: payload, Labels: labels}); err != nil {
			t.Fatal(err)
		}
		m := <-tr.Inbox(0)
		if m.Tensor == nil || m.Tensor.Size() != elems || !stamped(m.Tensor, 1) {
			t.Fatal("echoed tensor differs from the one sent")
		}
		tensor.Put(m.Tensor)
	}
	for i := 0; i < 10; i++ { // dial, grow the header buffers, fill the pool
		trip()
	}
	// A collection empties sync.Pool; keep one out of the measured trips.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const trips = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&ms1)
	perTrip := (ms1.TotalAlloc - ms0.TotalAlloc) / trips
	allocs := (ms1.Mallocs - ms0.Mallocs) / trips
	t.Logf("%d B and %d allocations per round trip of 2 × %d payload bytes", perTrip, allocs, 4*elems)
	// Two label slices of 128 B dominate. A path that allocated per message
	// would show 4 MiB; the bound leaves room for one pool miss in the run
	// (a Put parked in another P's private slot).
	if perTrip > 4*elems/16 || allocs > 16 {
		t.Fatalf("round trip allocates %d B in %d objects, want header/shape/labels only", perTrip, allocs)
	}
}

// After Send returns the sender may overwrite its tensor at once, on either
// transport — even when a Chaos wrapper delivers the message later — and
// the receiver's copy is unaffected. (The whole rule, over every transport
// and wrapper: TestTransportContract in internal/serve/fleet.)
func TestSenderMayOverwriteAfterSend(t *testing.T) {
	for _, overTCP := range []bool{false, true} {
		for _, delayed := range []bool{false, true} {
			var tr Transport = NewChannels(2, 4)
			if overTCP {
				tcp, err := NewTCP(2, 4)
				if err != nil {
					t.Fatal(err)
				}
				tr = tcp
			}
			if delayed {
				tr = NewChaos(tr, ChaosConfig{Seed: 1, DelayRate: 1, MaxDelay: 20 * time.Millisecond})
			}
			x := tensor.New(64, 64)
			stamp(x, 5)
			if err := tr.Send(1, Message{Kind: Activation, Minibatch: 5, Tensor: x}); err != nil {
				t.Fatal(err)
			}
			x.Fill(-1)
			select {
			case m := <-tr.Inbox(1):
				if !stamped(m.Tensor, 5) {
					t.Errorf("tcp=%v delayed=%v: receiver saw the sender's later writes", overTCP, delayed)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("tcp=%v delayed=%v: message never delivered", overTCP, delayed)
			}
			tr.Close()
		}
	}
}

// A sender that dies mid-payload delivers nothing: the partly filled
// tensor goes back to the pool, the failure is counted, and the endpoint
// keeps serving other connections.
func TestTruncatedFrameDeliversNothing(t *testing.T) {
	tr, err := NewTCP(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	whole := tensor.New(256, 256)
	stamp(whole, 9)
	head, payload, err := appendFrame(nil, Message{Kind: Activation, Minibatch: 9, Tensor: whole}, hostLittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	frame := append(head, payload...)
	_, _, puts0 := tensor.PoolCounters()
	conn, err := net.Dial("tcp", tr.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame[:len(head)+len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().RecvErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("truncated frame never counted as a receive error")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, puts1 := tensor.PoolCounters(); puts1 != puts0+1 {
		t.Errorf("partly filled tensor not returned to the pool (%d puts)", puts1-puts0)
	}
	// A corrupt header counts too, and neither poisons the endpoint.
	conn, err = net.Dial("tcp", tr.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[0:], 0xDEADBEEF)
	conn.Write(bad)
	conn.Close()
	for tr.Stats().RecvErrors < 2 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt frame never counted as a receive error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tr.Send(0, Message{Kind: Activation, Minibatch: 9, Tensor: whole}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-tr.Inbox(0):
		if m.Minibatch != 9 || !stamped(m.Tensor, 9) {
			t.Fatal("the frame after the failures arrived damaged")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("endpoint stopped delivering after a failed frame")
	}
	select {
	case m := <-tr.Inbox(0):
		t.Fatalf("a failed frame was delivered: %+v", m)
	default:
	}
}

// errCut is the write error of a cutConn that reached its limit.
var errCut = errors.New("connection cut")

// cutConn is a dialed connection that breaks after left bytes: the write
// that crosses the limit sends only the bytes below it, closes the
// connection and fails.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.left])
	c.left = 0
	c.Conn.Close()
	return n, errCut
}

// A storm of severed connections while 256 KB frames are in flight:
// every connection the sender dials breaks in the middle of its third
// frame. Every message is still delivered exactly once (the sender
// re-dials and resends the whole frame), no delivered tensor is damaged,
// and the frames cut short are counted, not delivered.
func TestBreakConnStormDeliversOnlyWholeFrames(t *testing.T) {
	tr, err := NewTCP(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	x := tensor.New(256, 256)
	head, payload, err := appendFrame(nil, Message{Kind: Activation, Tensor: x}, hostLittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(head) + len(payload)
	tr.wrapConn = func(c net.Conn) net.Conn { return &cutConn{Conn: c, left: 2*frame + frame/2} }

	const msgs = 12
	go func() {
		for n := 0; n < msgs; n++ {
			stamp(x, n)
			if err := tr.Send(1, Message{Kind: Activation, Minibatch: n, Tensor: x}); err != nil {
				t.Errorf("send %d: %v", n, err)
				return
			}
		}
	}()
	seen := map[int]bool{}
	for len(seen) < msgs {
		select {
		case m := <-tr.Inbox(1):
			if !stamped(m.Tensor, m.Minibatch) {
				t.Fatalf("message %d delivered damaged", m.Minibatch)
			}
			if seen[m.Minibatch] {
				t.Fatalf("message %d delivered twice", m.Minibatch)
			}
			seen[m.Minibatch] = true
			tensor.Put(m.Tensor)
		case <-time.After(20 * time.Second):
			t.Fatalf("received %d of %d messages", len(seen), msgs)
		}
	}
	// A cut frame is counted by its connection's reader, which may still
	// be draining the whole frame before the cut.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().RecvErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := tr.Stats(); s.RecvErrors == 0 || s.Reconnects == 0 {
		t.Fatalf("storm cut no frame short in %d sends: %+v", msgs, s)
	}
}
