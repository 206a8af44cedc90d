package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig parameterizes a Chaos transport's fault schedule. All rates
// are probabilities in [0, 1]; the schedule is deterministic for a given
// Seed and sequence of Send calls.
type ChaosConfig struct {
	// Seed fixes the fault schedule (same seed + same send sequence =
	// same faults).
	Seed int64
	// DropRate is the probability a message is silently discarded.
	DropRate float64
	// DelayRate is the probability a message is delivered late (after a
	// uniform delay in (0, MaxDelay]).
	DelayRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// MaxDelay bounds injected delays (default 10ms when DelayRate > 0).
	MaxDelay time.Duration
}

// Chaos wraps an inner Transport with deterministic seeded fault
// injection: it can drop, delay, or duplicate messages, sever the path to
// a worker (Sever), and kill a worker's inbox (KillInbox). It is the test
// harness for the pipeline's failure-detection and recovery paths.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	rngMu sync.Mutex
	rng   *rand.Rand

	// dropNext forces the next n sends to be dropped regardless of
	// DropRate — a precise, deterministic fault trigger for tests.
	dropNext atomic.Int64

	stateMu sync.Mutex
	severed map[int]bool
	killed  map[int]bool

	proxyMu sync.Mutex
	proxies map[int]chan Message

	stats statsCounters

	sendWg    sync.WaitGroup
	fwdWg     sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// NewChaos wraps inner with fault injection driven by cfg.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	return &Chaos{
		inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		severed: make(map[int]bool),
		killed:  make(map[int]bool),
		proxies: make(map[int]chan Message),
		closed:  make(chan struct{}),
	}
}

// DropNext forces the next n Send calls to be silently dropped (a
// deterministic fault trigger independent of DropRate).
func (c *Chaos) DropNext(n int) { c.dropNext.Add(int64(n)) }

// Sever cuts the path to worker w: subsequent Sends to w fail with
// ErrPeerDown until Heal.
func (c *Chaos) Sever(w int) {
	c.stateMu.Lock()
	c.severed[w] = true
	c.stateMu.Unlock()
	c.stats.severed.Add(1)
}

// Heal restores the path to worker w after Sever.
func (c *Chaos) Heal(w int) {
	c.stateMu.Lock()
	delete(c.severed, w)
	c.stateMu.Unlock()
}

// KillInbox makes worker w's inbox stop delivering messages (they are
// received from the inner transport and discarded) until ReviveInbox —
// simulating a hung or dead receiver whose peers can still connect.
func (c *Chaos) KillInbox(w int) {
	c.stateMu.Lock()
	c.killed[w] = true
	c.stateMu.Unlock()
	c.stats.killed.Add(1)
}

// ReviveInbox resumes delivery to worker w's inbox after KillInbox.
func (c *Chaos) ReviveInbox(w int) {
	c.stateMu.Lock()
	delete(c.killed, w)
	c.stateMu.Unlock()
}

// roll draws the fault decisions for one message from the seeded stream.
func (c *Chaos) roll() (drop, delay, dup bool, delayFor time.Duration) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	drop = c.rng.Float64() < c.cfg.DropRate
	delay = c.rng.Float64() < c.cfg.DelayRate
	dup = c.rng.Float64() < c.cfg.DupRate
	delayFor = time.Duration(1 + c.rng.Int63n(int64(c.cfg.MaxDelay)))
	return
}

// Send implements Transport, applying the fault schedule before
// delegating to the inner transport.
func (c *Chaos) Send(to int, m Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	c.stateMu.Lock()
	severed := c.severed[to]
	c.stateMu.Unlock()
	if severed {
		c.stats.sendErrors.Add(1)
		return ErrPeerDown
	}
	for {
		n := c.dropNext.Load()
		if n <= 0 {
			break
		}
		if c.dropNext.CompareAndSwap(n, n-1) {
			c.stats.drops.Add(1)
			return nil
		}
	}
	drop, delay, dup, delayFor := c.roll()
	if drop {
		c.stats.drops.Add(1)
		return nil
	}
	if delay {
		c.stats.delays.Add(1)
		if m.Tensor != nil {
			// The message leaves after Send has returned, when the sender
			// may already overwrite its tensor.
			m.Tensor = m.Tensor.Clone()
		}
		c.sendWg.Add(1)
		go func() {
			defer c.sendWg.Done()
			select {
			case <-time.After(delayFor):
				c.inner.Send(to, m)
			case <-c.closed:
			}
		}()
		return nil
	}
	if dup {
		c.stats.dups.Add(1)
		if err := c.inner.Send(to, m); err != nil {
			return err
		}
	}
	return c.inner.Send(to, m)
}

// Inbox implements Transport: it returns a proxy channel fed from the
// inner inbox so that KillInbox can discard deliveries.
func (c *Chaos) Inbox(w int) <-chan Message {
	c.proxyMu.Lock()
	defer c.proxyMu.Unlock()
	if ch, ok := c.proxies[w]; ok {
		return ch
	}
	ch := make(chan Message, 8)
	c.proxies[w] = ch
	src := c.inner.Inbox(w)
	c.fwdWg.Add(1)
	go func() {
		defer c.fwdWg.Done()
		defer close(ch)
		for {
			var m Message
			var ok bool
			select {
			case m, ok = <-src:
				if !ok {
					return
				}
			case <-c.closed:
				return
			}
			c.stateMu.Lock()
			dead := c.killed[w]
			c.stateMu.Unlock()
			if dead {
				continue // inbox killed: message vanishes
			}
			select {
			case ch <- m:
			case <-c.closed:
				return
			}
		}
	}()
	return ch
}

// Local reports whether the inner transport hosts worker w's inbox.
func (c *Chaos) Local(w int) bool { return Local(c.inner, w) }

// Stats implements StatsReporter, merging this wrapper's injected-fault
// counters with the inner transport's (when it reports any).
func (c *Chaos) Stats() Stats {
	s := c.stats.snapshot()
	if sr, ok := c.inner.(StatsReporter); ok {
		inner := sr.Stats()
		// sendErrors from severed paths are ours; reconnects and real
		// send errors are the inner transport's.
		s = s.Add(inner)
	}
	return s
}

// Close implements Transport: it stops delayed deliveries, closes the
// inner transport, and drains the inbox forwarders. The inner transport
// closes first so a delayed send blocked on a full inner inbox unblocks
// with ErrClosed instead of wedging the shutdown.
func (c *Chaos) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.inner.Close()
		c.sendWg.Wait()
		c.fwdWg.Wait()
	})
	return err
}
