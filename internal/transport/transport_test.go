package transport

import (
	"sync"
	"testing"

	"pipedream/internal/tensor"
)

func sampleMessage(mb int) Message {
	return Message{
		Kind:      Activation,
		Minibatch: mb,
		Version:   3,
		Tensor:    tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2),
		Labels:    []int{7, 8},
	}
}

func TestChannelsDelivery(t *testing.T) {
	c := NewChannels(3, 4)
	defer c.Close()
	c.Send(1, sampleMessage(5))
	m := <-c.Inbox(1)
	if m.Minibatch != 5 || m.Tensor.At(1, 1) != 4 || m.Labels[1] != 8 {
		t.Fatalf("message corrupted: %+v", m)
	}
	select {
	case <-c.Inbox(0):
		t.Fatal("worker 0 should have no messages")
	default:
	}
}

func TestChannelsCloseIdempotent(t *testing.T) {
	c := NewChannels(1, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-c.Inbox(0); ok {
		t.Fatal("inbox should be closed")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tr, err := NewTCP(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send(1, sampleMessage(9))
	m := <-tr.Inbox(1)
	if m.Minibatch != 9 || m.Kind != Activation || m.Version != 3 {
		t.Fatalf("message corrupted: %+v", m)
	}
	if !m.Tensor.AllClose(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2), 0) {
		t.Fatalf("tensor corrupted: %v", m.Tensor)
	}
	if len(m.Labels) != 2 || m.Labels[0] != 7 {
		t.Fatalf("labels corrupted: %v", m.Labels)
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	tr, err := NewTCP(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 50
	for i := 0; i < n; i++ {
		tr.Send(0, sampleMessage(i))
	}
	for i := 0; i < n; i++ {
		m := <-tr.Inbox(0)
		if m.Minibatch != i {
			t.Fatalf("message %d arrived out of order (got %d)", i, m.Minibatch)
		}
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	tr, err := NewTCP(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	const senders, per = 4, 20
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Send(0, sampleMessage(s*per+i))
			}
		}(s)
	}
	wg.Wait()
	seen := map[int]bool{}
	for i := 0; i < senders*per; i++ {
		m := <-tr.Inbox(0)
		if seen[m.Minibatch] {
			t.Fatalf("duplicate minibatch %d", m.Minibatch)
		}
		seen[m.Minibatch] = true
	}
	if len(seen) != senders*per {
		t.Fatalf("received %d messages, want %d", len(seen), senders*per)
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	tr, err := NewTCP(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for range tr.Inbox(0) {
		}
		close(done)
	}()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestMsgKindString(t *testing.T) {
	if Activation.String() != "activation" || Gradient.String() != "gradient" {
		t.Fatal("kind strings wrong")
	}
}
