package transport

import (
	"net"
	"testing"
	"time"

	"pipedream/internal/tensor"
)

func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestListenTCPRoundTripAcrossEndpoints(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, err := ListenTCP(addrs, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(addrs, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.Send(1, Message{Kind: Activation, Minibatch: 3,
		Tensor: tensor.FromSlice([]float32{1, 2}, 2), Labels: []int{9}})
	m := <-b.Inbox(1)
	if m.Minibatch != 3 || m.Tensor.Data[1] != 2 || m.Labels[0] != 9 {
		t.Fatalf("message corrupted: %+v", m)
	}
	// And the reverse direction.
	b.Send(0, Message{Kind: Gradient, Minibatch: 4, Tensor: tensor.FromSlice([]float32{5}, 1)})
	r := <-a.Inbox(0)
	if r.Kind != Gradient || r.Minibatch != 4 {
		t.Fatalf("reply corrupted: %+v", r)
	}
}

func TestListenTCPRetriesUntilPeerStarts(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, err := ListenTCP(addrs, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Start the receiver AFTER a delay; the sender must retry and
	// eventually deliver.
	done := make(chan Message, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		b, err := ListenTCP(addrs, []int{1}, 4)
		if err != nil {
			return
		}
		defer b.Close()
		done <- <-b.Inbox(1)
	}()
	a.Send(1, Message{Kind: Activation, Minibatch: 7, Tensor: tensor.FromSlice([]float32{1}, 1)})
	select {
	case m := <-done:
		if m.Minibatch != 7 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered despite retry")
	}
}

func TestListenTCPForeignInboxIsClosed(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, err := ListenTCP(addrs, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Only the local worker's inbox exists in this process; a foreign ID
	// yields a permanently closed channel, not a panic.
	select {
	case _, ok := <-a.Inbox(1):
		if ok {
			t.Fatal("foreign inbox delivered a message")
		}
	default:
		t.Fatal("foreign inbox should read as closed immediately")
	}
}

func TestListenTCPRejectsBadLocalIDs(t *testing.T) {
	if _, err := ListenTCP([]string{"127.0.0.1:0"}, []int{5}, 1); err == nil {
		t.Fatal("out-of-range id must fail")
	}
	if _, err := ListenTCP([]string{"127.0.0.1:0", "127.0.0.1:0"}, []int{1, 1}, 1); err == nil {
		t.Fatal("repeated id must fail")
	}
}

// An endpoint may host several workers: sends between two of them stay
// inside the process's own listeners, sends to the third cross to the
// other endpoint, and Local answers for each — directly and through a
// Chaos wrapper, which is how the pipeline finds its local worker set.
func TestListenTCPHostsASubsetOfWorkers(t *testing.T) {
	addrs := freeAddrs(t, 3)
	ab, err := ListenTCP(addrs, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ab.Close()
	c, err := ListenTCP(addrs, []int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wrapped := NewChaos(ab, ChaosConfig{})
	for w, want := range []bool{true, true, false} {
		if ab.Local(w) != want || Local(wrapped, w) != want || c.Local(w) == want {
			t.Fatalf("Local(%d) wrong: ab=%v wrapped=%v c=%v", w, ab.Local(w), Local(wrapped, w), c.Local(w))
		}
	}
	if !Local(NewChannels(1, 1), 0) {
		t.Fatal("a transport without a Local method hosts every worker")
	}
	if err := ab.Send(1, sampleMessage(1)); err != nil {
		t.Fatal(err)
	}
	if err := ab.Send(2, sampleMessage(2)); err != nil {
		t.Fatal(err)
	}
	if m := <-ab.Inbox(1); m.Minibatch != 1 {
		t.Fatalf("local delivery got %+v", m)
	}
	if m := <-c.Inbox(2); m.Minibatch != 2 {
		t.Fatalf("remote delivery got %+v", m)
	}
}
