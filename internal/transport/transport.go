// Package transport moves activations and gradients between pipeline-stage
// workers. Two implementations share one interface: an in-process channel
// transport (the common case: workers are goroutines) and a TCP transport
// that serializes messages as binary frames over real sockets (see
// frame.go: payloads go to the kernel straight from tensor storage and
// are read straight into pooled tensors), hosting either every worker of
// the plan in one process or, in multi-process deployments, only this
// process's.
// A third, Chaos, wraps either with deterministic fault injection for
// testing the pipeline's failure paths.
//
// Send never panics: delivery failures surface as typed errors
// (ErrPeerDown, ErrClosed) after automatic reconnect-with-backoff, so a
// dead peer is a condition callers detect and recover from, not a crash.
package transport

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"pipedream/internal/tensor"
)

// jitterBackoff returns a duration drawn uniformly from [d/2, 3d/2).
// Retry sleeps are randomized because correlated failures are the norm:
// one worker death severs every inbound connection at once, and without
// jitter the survivors redial in lockstep, hammering the returning
// listener in synchronized waves at exactly the moments it tries to
// accept.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// MsgKind distinguishes message payloads.
type MsgKind int

// Message kinds.
const (
	// Activation carries a stage's forward output to the next stage.
	Activation MsgKind = iota
	// Gradient carries the loss gradient w.r.t. a stage's input back to
	// the previous stage.
	Gradient
	_ // 2: retired full-gradient exchange
	// Heartbeat is a liveness probe between adjacent stages. It carries
	// no payload; its purpose is to force a send on the connection so
	// that a dead peer surfaces as ErrPeerDown at the sender.
	Heartbeat
	// GradChunk carries one chunk of a ring all-reduce between sibling
	// replicas of a replicated stage (reduce-scatter or all-gather
	// traffic). Minibatch holds the all-reduce round key, Version the
	// sender's replica rank, and Chunk locates the transfer within the
	// round.
	GradChunk
	// Prediction carries the output stage's forward result of one
	// serving batch back to the front-end demultiplexer (forward-only
	// inference; no backward pass follows). Minibatch holds the serving
	// batch id.
	Prediction
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case Activation:
		return "activation"
	case Gradient:
		return "gradient"
	case Heartbeat:
		return "heartbeat"
	case GradChunk:
		return "grad-chunk"
	case Prediction:
		return "prediction"
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// ChunkInfo locates one ring all-reduce transfer within its round. It is
// meaningful only on GradChunk messages.
type ChunkInfo struct {
	// Bucket indexes the gradient bucket the chunk belongs to.
	Bucket int
	// Phase is 0 during reduce-scatter and 1 during all-gather.
	Phase int
	// Step is the ring step within the phase (0 .. participants-2).
	Step int
	// Chunk is the chunk index being transferred at this step.
	Chunk int
}

// Message is one inter-stage transfer for one minibatch.
type Message struct {
	Kind      MsgKind
	Minibatch int
	// Version is the weight-version tag used by vertical sync.
	Version int
	// Src is the sender's stage index. Stages with several in- or
	// out-edges in a DAG plan use it to attribute each activation or
	// gradient to its dataflow edge (join bookkeeping, dedup, and
	// deterministic combination order); linear pipelines ignore it.
	Src int
	// Sink tags serving traffic with the request's target head stage, so
	// stage workers route the batch along only the ancestors of that
	// sink; training pipelines (which run the whole graph) leave it 0.
	Sink   int
	Tensor *tensor.Tensor
	Labels []int
	// Chunk carries ring all-reduce routing metadata on GradChunk
	// messages (zero otherwise).
	Chunk ChunkInfo
}

// Transport delivers messages to per-worker inboxes.
//
// One ownership rule holds on every implementation. Send borrows m.Tensor
// until it returns: the sender still owns it — a view into a larger array
// included — and may overwrite, release or re-send it at once. What comes
// out of an Inbox is a private tensor from the tensor pool that the receiver
// hands to tensor.Put when done. So an in-process Send must copy (Channels),
// a serializing one has the bytes on the wire by then (TCP), and a wrapper
// that delivers after its Send returned clones first (Chaos's delay).
type Transport interface {
	// Send delivers m to worker `to`'s inbox. It may block if the
	// receiver's inbox is full (providing natural backpressure). A
	// delivery failure returns a typed error — ErrPeerDown when the
	// destination is unreachable after reconnect-with-backoff, ErrClosed
	// when this endpoint has been shut down — and never panics.
	Send(to int, m Message) error
	// Inbox returns worker w's receive channel. The channel is closed by
	// Close.
	Inbox(w int) <-chan Message
	// Close shuts down the transport and closes all inboxes.
	Close() error
}

// Channels is the in-process transport: one buffered Go channel per
// worker.
type Channels struct {
	inboxes   []chan Message
	closeOnce sync.Once
	closed    chan struct{}
}

// NewChannels creates an in-process transport for n workers with the given
// per-inbox buffer size.
func NewChannels(n, buffer int) *Channels {
	c := &Channels{
		inboxes: make([]chan Message, n),
		closed:  make(chan struct{}),
	}
	for i := range c.inboxes {
		c.inboxes[i] = make(chan Message, buffer)
	}
	return c
}

// Send implements Transport: the receiver gets a pooled copy of m.Tensor.
// After Close it returns ErrClosed.
func (c *Channels) Send(to int, m Message) (err error) {
	// A concurrent Close can close the inbox between the select below and
	// the channel send; recover turns that race into ErrClosed instead of
	// a crash.
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("send to worker %d: %w", to, ErrClosed)
		}
	}()
	select {
	case <-c.closed:
		return fmt.Errorf("send to worker %d: %w", to, ErrClosed)
	default:
	}
	if src := m.Tensor; src != nil {
		m.Tensor = tensor.GetRaw(src.Shape...)
		copy(m.Tensor.Data, src.Data)
	}
	select {
	case c.inboxes[to] <- m:
		return nil
	case <-c.closed:
		return fmt.Errorf("send to worker %d: %w", to, ErrClosed)
	}
}

// Inbox implements Transport.
func (c *Channels) Inbox(w int) <-chan Message { return c.inboxes[w] }

// Close implements Transport.
func (c *Channels) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		for _, ch := range c.inboxes {
			close(ch)
		}
	})
	return nil
}

// Local reports whether worker w's inbox lives in this process. Transports
// that host only some workers (a TCP endpoint of a multi-process
// deployment, or a wrapper around one) say so through a Local method;
// every other transport hosts them all. A wrapper around an endpoint must
// therefore forward Local, as Chaos does: one that does not reads as
// hosting every worker, and receives from the inboxes it lacks report
// ErrClosed at run time.
func Local(tr Transport, w int) bool {
	if p, ok := tr.(interface{ Local(w int) bool }); ok {
		return p.Local(w)
	}
	return true
}

// Default deadlines of the TCP transport. Each instance copies them at
// construction so tests can shorten its own copies without races.
const (
	// DefaultSendTimeout bounds one message write; a peer that stops
	// draining its socket surfaces as a send error instead of a hang.
	DefaultSendTimeout = 10 * time.Second
	// DefaultRedialTimeout bounds how long one Send keeps dialing with
	// backoff — a peer process that has not started yet, or one that died
	// and is being restarted — before giving up with ErrPeerDown.
	DefaultRedialTimeout = 30 * time.Second
)

// TCP is the socket transport: every worker has a listen address, and the
// workers whose IDs are local to this process listen on theirs and own an
// inbox. Sends go to any worker, local or not, over one cached connection
// per destination carrying binary "PDF2" frames (see frame.go), so it
// carries exactly the same Message type as Channels. NewTCP hosts all
// workers in one process on loopback ports; ListenTCP hosts a subset, with
// every process of the deployment given the same address list. Broken
// connections are detected at send time and re-dialed with backoff; a
// destination that stays down surfaces as ErrPeerDown.
type TCP struct {
	addrs     []string       // listen address of every worker, by ID
	inboxes   []chan Message // nil for workers hosted by another process
	listeners []net.Listener

	// SendTimeout bounds one message write; RedialTimeout bounds the
	// total dial-and-retry budget of one Send. Set before first use (they
	// default to DefaultSendTimeout / DefaultRedialTimeout).
	SendTimeout   time.Duration
	RedialTimeout time.Duration

	// mu guards conns and accepted. It is never held across a dial, a
	// write or a sleep, so one unreachable peer cannot delay sends to the
	// others.
	mu       sync.Mutex
	conns    map[int]*frameConn // destination worker -> connection
	accepted map[net.Conn]struct{}

	stats statsCounters

	wg        sync.WaitGroup
	closeOnce sync.Once
	// ctx is done once Close is called; it also cancels in-flight dials.
	ctx    context.Context
	cancel context.CancelFunc

	// noInbox is a pre-closed channel returned for non-local worker IDs.
	noInbox chan Message

	// wrapConn, when set (by tests, before the first Send), wraps every
	// dialed connection.
	wrapConn func(net.Conn) net.Conn
}

// frameConn is one outbound socket plus its reusable header buffer: each
// send encodes the message's header, dims and labels into the buffer and
// hands it to the kernel together with the tensor's own storage in a
// single writev, so the steady state neither copies the payload in user
// space nor allocates per message.
type frameConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
	// vec is the writev argument, a field because WriteTo consumes the
	// slice it is called on (and a local would escape to the heap).
	vec   net.Buffers
	parts [2][]byte
}

// send writes one message under the connection's buffer lock, bounded by
// timeout (0 means no deadline).
func (fc *frameConn) send(m Message, timeout time.Duration) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	head, payload, err := appendFrame(fc.buf, m, hostLittleEndian)
	fc.buf = head
	if err != nil {
		return err
	}
	if timeout > 0 {
		fc.conn.SetWriteDeadline(time.Now().Add(timeout))
		defer fc.conn.SetWriteDeadline(time.Time{})
	}
	fc.parts = [2][]byte{head, payload}
	fc.vec = fc.parts[:]
	_, err = fc.vec.WriteTo(fc.conn)
	fc.parts[1] = nil // do not pin the sender's tensor until the next send
	return err
}

// NewTCP creates a TCP transport hosting all n workers in this process,
// each listening on an ephemeral loopback port.
func NewTCP(n, buffer int) (*TCP, error) {
	addrs := make([]string, n)
	local := make([]int, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
		local[i] = i
	}
	return ListenTCP(addrs, local, buffer)
}

// ListenTCP creates the TCP endpoint of the workers in local: it listens
// on addrs[w] and owns an inbox of the given buffer size for each of
// them, and dials addrs[v] on demand to send to any worker v. Every
// process of a deployment passes the same address list; peers need not be
// up yet, since dialing retries with backoff until RedialTimeout elapses.
func ListenTCP(addrs []string, local []int, buffer int) (*TCP, error) {
	t := &TCP{
		addrs:         append([]string(nil), addrs...),
		inboxes:       make([]chan Message, len(addrs)),
		conns:         make(map[int]*frameConn),
		accepted:      make(map[net.Conn]struct{}),
		noInbox:       make(chan Message),
		SendTimeout:   DefaultSendTimeout,
		RedialTimeout: DefaultRedialTimeout,
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	close(t.noInbox)
	for _, w := range local {
		if w < 0 || w >= len(addrs) || t.inboxes[w] != nil {
			t.Close()
			return nil, fmt.Errorf("transport: local worker id %d invalid or repeated for %d addresses", w, len(addrs))
		}
		ln, err := net.Listen("tcp", addrs[w])
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: listen for worker %d: %w", w, err)
		}
		t.addrs[w] = ln.Addr().String() // resolves a ":0" port request
		t.inboxes[w] = make(chan Message, buffer)
		t.listeners = append(t.listeners, ln)
		t.wg.Add(1)
		go t.acceptLoop(ln, t.inboxes[w])
	}
	return t, nil
}

// Addr returns the listen address of worker w.
func (t *TCP) Addr(w int) string { return t.addrs[w] }

// Local reports whether worker w listens, and has its inbox, in this
// process.
func (t *TCP) Local(w int) bool { return w >= 0 && w < len(t.inboxes) && t.inboxes[w] != nil }

func (t *TCP) acceptLoop(ln net.Listener, inbox chan<- Message) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		select {
		case <-t.ctx.Done():
			// Close already swept the accepted set; nobody else would
			// close this one.
			t.mu.Unlock()
			conn.Close()
			return
		default:
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if frameReadLoop(conn, inbox, t.ctx.Done()) != nil {
				t.stats.recvErrors.Add(1)
			}
			t.mu.Lock()
			delete(t.accepted, conn)
			t.mu.Unlock()
			conn.Close()
		}()
	}
}

// Send implements Transport. Connections are established lazily and
// reused; concurrent sends to the same destination serialize on the
// connection's frame buffer. A failed dial or write drops the cached
// connection and retries with jittered backoff until RedialTimeout
// elapses, then returns an error wrapping ErrPeerDown — the same loop
// whether the peer is not up yet, restarted, or gone.
func (t *TCP) Send(to int, m Message) error {
	if to < 0 || to >= len(t.addrs) {
		return fmt.Errorf("send to unknown worker %d: %w", to, ErrPeerDown)
	}
	deadline := time.Now().Add(t.RedialTimeout)
	backoff := 10 * time.Millisecond
	var lastErr error
	for {
		select {
		case <-t.ctx.Done():
			return fmt.Errorf("send to worker %d: %w", to, ErrClosed)
		default:
		}
		fc, fresh, err := t.conn(to, deadline)
		if err == nil {
			if fresh && lastErr != nil {
				t.stats.reconnects.Add(1)
			}
			if err = fc.send(m, t.SendTimeout); err == nil {
				return nil
			}
			t.invalidate(to, fc)
		}
		t.stats.sendErrors.Add(1)
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("send to worker %d: %v: %w", to, lastErr, ErrPeerDown)
		}
		select {
		case <-t.ctx.Done():
			return fmt.Errorf("send to worker %d: %w", to, ErrClosed)
		case <-time.After(jitterBackoff(backoff)):
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// conn returns the cached connection to worker `to`, dialing one if none
// is cached. The dial gives up at deadline (the calling Send's budget) or
// when the transport is closed, whichever comes first. fresh reports
// whether this call created the connection.
func (t *TCP) conn(to int, deadline time.Time) (fc *frameConn, fresh bool, err error) {
	t.mu.Lock()
	fc = t.conns[to]
	t.mu.Unlock()
	if fc != nil {
		return fc, false, nil
	}
	ctx, cancel := context.WithDeadline(t.ctx, deadline)
	defer cancel()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", t.addrs[to])
	if err != nil {
		return nil, false, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(15 * time.Second)
	}
	if t.wrapConn != nil {
		c = t.wrapConn(c)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.ctx.Done():
		c.Close()
		return nil, false, ErrClosed
	default:
	}
	if cur := t.conns[to]; cur != nil {
		// A concurrent Send connected first; one connection per
		// destination keeps each sender's messages in order.
		c.Close()
		return cur, false, nil
	}
	fc = &frameConn{conn: c}
	t.conns[to] = fc
	return fc, true, nil
}

// invalidate drops a broken cached connection so the next Send re-dials.
// It only evicts if the cache still holds the same connection (a
// concurrent Send may already have replaced it).
func (t *TCP) invalidate(to int, fc *frameConn) {
	t.mu.Lock()
	if t.conns[to] == fc {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	fc.conn.Close()
}

// BreakConn severs the cached outbound connection to worker `to` (test
// and chaos hook): the next Send detects the broken pipe and re-dials.
func (t *TCP) BreakConn(to int) {
	t.mu.Lock()
	fc := t.conns[to]
	t.mu.Unlock()
	if fc != nil {
		t.invalidate(to, fc)
	}
}

// Stats implements StatsReporter.
func (t *TCP) Stats() Stats { return t.stats.snapshot() }

// Inbox implements Transport. Only local workers' inboxes exist in this
// process; asking for any other ID returns a permanently closed channel
// (a receive from it reports the worker as unavailable instead of
// crashing the process).
func (t *TCP) Inbox(w int) <-chan Message {
	if !t.Local(w) {
		return t.noInbox
	}
	return t.inboxes[w]
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.cancel()
		for _, ln := range t.listeners {
			ln.Close()
		}
		t.mu.Lock()
		for _, fc := range t.conns {
			fc.conn.Close()
		}
		for c := range t.accepted {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
		for _, ch := range t.inboxes {
			if ch != nil {
				close(ch)
			}
		}
	})
	return nil
}
