package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// drainCount reads messages from ch until it stays quiet for `settle`,
// returning how many arrived.
func drainCount(ch <-chan Message, settle time.Duration) int {
	n := 0
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return n
			}
			n++
		case <-time.After(settle):
			return n
		}
	}
}

func TestChaosPassThrough(t *testing.T) {
	c := NewChaos(NewChannels(2, 4), ChaosConfig{Seed: 1})
	defer c.Close()
	if err := c.Send(1, sampleMessage(3)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-c.Inbox(1):
		if m.Minibatch != 3 || m.Tensor.At(1, 1) != 4 {
			t.Fatalf("message corrupted: %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
}

func TestChaosDropRateIsDeterministic(t *testing.T) {
	counts := make([]int, 2)
	for trial := 0; trial < 2; trial++ {
		c := NewChaos(NewChannels(2, 128), ChaosConfig{Seed: 7, DropRate: 0.5})
		inbox := c.Inbox(1)
		for i := 0; i < 100; i++ {
			if err := c.Send(1, sampleMessage(i)); err != nil {
				t.Fatal(err)
			}
		}
		counts[trial] = drainCount(inbox, 100*time.Millisecond)
		c.Close()
	}
	if counts[0] == 100 || counts[0] == 0 {
		t.Fatalf("drop rate 0.5 delivered %d/100", counts[0])
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed produced different schedules: %d vs %d", counts[0], counts[1])
	}
}

func TestChaosDropNext(t *testing.T) {
	c := NewChaos(NewChannels(2, 8), ChaosConfig{Seed: 1})
	defer c.Close()
	c.DropNext(2)
	for i := 0; i < 3; i++ {
		if err := c.Send(1, sampleMessage(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := drainCount(c.Inbox(1), 100*time.Millisecond)
	if got != 1 {
		t.Fatalf("DropNext(2) then 3 sends delivered %d, want 1", got)
	}
	if s := c.Stats(); s.Drops != 2 {
		t.Fatalf("Drops = %d, want 2", s.Drops)
	}
}

func TestChaosDelayDeliversEventually(t *testing.T) {
	c := NewChaos(NewChannels(2, 64), ChaosConfig{Seed: 3, DelayRate: 1, MaxDelay: 20 * time.Millisecond})
	defer c.Close()
	inbox := c.Inbox(1)
	const n = 20
	for i := 0; i < n; i++ {
		if err := c.Send(1, sampleMessage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainCount(inbox, 200*time.Millisecond); got != n {
		t.Fatalf("delayed delivery lost messages: %d/%d", got, n)
	}
	if s := c.Stats(); s.Delays != n {
		t.Fatalf("Delays = %d, want %d", s.Delays, n)
	}
}

func TestChaosDuplicate(t *testing.T) {
	c := NewChaos(NewChannels(2, 64), ChaosConfig{Seed: 5, DupRate: 1})
	defer c.Close()
	inbox := c.Inbox(1)
	const n = 10
	for i := 0; i < n; i++ {
		if err := c.Send(1, sampleMessage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainCount(inbox, 100*time.Millisecond); got != 2*n {
		t.Fatalf("DupRate 1 delivered %d, want %d", got, 2*n)
	}
}

func TestChaosSeverAndHeal(t *testing.T) {
	c := NewChaos(NewChannels(2, 8), ChaosConfig{Seed: 1})
	defer c.Close()
	c.Sever(1)
	if err := c.Send(1, sampleMessage(0)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to severed worker: %v, want ErrPeerDown", err)
	}
	c.Heal(1)
	if err := c.Send(1, sampleMessage(1)); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	select {
	case m := <-c.Inbox(1):
		if m.Minibatch != 1 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("healed path never delivered")
	}
}

func TestChaosKillInbox(t *testing.T) {
	c := NewChaos(NewChannels(2, 8), ChaosConfig{Seed: 1})
	defer c.Close()
	inbox := c.Inbox(1)
	c.KillInbox(1)
	if err := c.Send(1, sampleMessage(0)); err != nil {
		t.Fatal(err) // send succeeds; delivery vanishes
	}
	if got := drainCount(inbox, 100*time.Millisecond); got != 0 {
		t.Fatalf("killed inbox delivered %d messages", got)
	}
	c.ReviveInbox(1)
	if err := c.Send(1, sampleMessage(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-inbox:
		if m.Minibatch != 1 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("revived inbox never delivered")
	}
}

func TestChaosCloseUnblocksAndRejects(t *testing.T) {
	c := NewChaos(NewChannels(2, 1), ChaosConfig{Seed: 1, DelayRate: 1, MaxDelay: 50 * time.Millisecond})
	inbox := c.Inbox(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.Send(1, sampleMessage(i))
		}
	}()
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, sampleMessage(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	// The proxy channel must end up closed, not leaked.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-inbox:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("chaos inbox never closed")
		}
	}
}

func TestChaosOverPartialTCPRoundTrip(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, err := ListenTCP(addrs, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(addrs, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ca := NewChaos(a, ChaosConfig{Seed: 1})
	cb := NewChaos(b, ChaosConfig{Seed: 2})
	defer ca.Close()
	defer cb.Close()
	if err := ca.Send(1, sampleMessage(4)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-cb.Inbox(1):
		if m.Minibatch != 4 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never crossed the wire")
	}
}
