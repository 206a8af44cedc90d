package fleet

import (
	"testing"
	"time"
	"unsafe"

	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// TestTransportContract holds every transport, and every wrapper the repo
// stacks on one, to the one ownership rule of transport.Transport: Send
// borrows its tensor, the receiver owns what it is delivered. It lives here
// because this package runs with the pool poisoned (poison_test.go), which
// (b) relies on. For each transport, sixteen messages go from endpoint 0 to
// endpoint 1, every one a view into the middle of a larger array:
//
//	(a) the sender scrubs the view the instant Send returns, and the
//	    receiver still reads the values sent — also when a Chaos layer
//	    delivers after Send has returned;
//	(b) the receiver holds every delivery and then hands each to tensor.Put
//	    (the pool poisons what it is given: poison_test.go), which leaves the
//	    sender's array as the sender left it;
//	(c) nothing around the view was written: a transport that passed the
//	    view itself on would have the receiver's Put poison the array's tail;
//	(d) no two deliveries, a Chaos duplicate's two included, share an array
//	    with each other or with the sender.
func TestTransportContract(t *testing.T) {
	chaos := transport.ChaosConfig{Seed: 5, DelayRate: 0.4, DupRate: 0.6, MaxDelay: 2 * time.Millisecond}
	tcp := func() transport.Transport {
		tr, err := transport.NewTCP(2, 64)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, c := range []struct {
		name string
		tr   transport.Transport
		dups bool
	}{
		{"channels", transport.NewChannels(2, 64), false},
		{"tcp", tcp(), false},
		{"chaos(channels)", transport.NewChaos(transport.NewChannels(2, 64), chaos), true},
		{"chaos(tcp)", transport.NewChaos(tcp(), chaos), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer c.tr.Close()
			const msgs, n = 16, 64
			const sentinel, scrubbed = -7, -1
			// The view's capacity, 2n, is a pool size class: a Put of this
			// array would be accepted, and poison base[2n:].
			base := make([]float32, 4*n)
			for i := range base {
				base[i] = sentinel
			}
			view := tensor.FromSlice(base[2*n:3*n], 8, n/8)
			for id := 0; id < msgs; id++ {
				for i := range view.Data {
					view.Data[i] = float32(id*31 + i)
				}
				if err := c.tr.Send(1, transport.Message{Kind: transport.Activation, Minibatch: id, Tensor: view}); err != nil {
					t.Fatal(err)
				}
				view.Fill(scrubbed)
			}
			arrays := map[unsafe.Pointer]bool{unsafe.Pointer(&base[2*n]): true}
			seen := map[int]int{}
			var held []*tensor.Tensor
			quiet := 5 * time.Second // until every message has arrived once; then long enough for a late duplicate
			for {
				select {
				case m := <-c.tr.Inbox(1):
					for i, v := range m.Tensor.Data {
						if v != float32(m.Minibatch*31+i) {
							t.Fatalf("message %d: element %d = %v: the receiver sees the sender's later writes", m.Minibatch, i, v)
						}
					}
					p := unsafe.Pointer(unsafe.SliceData(m.Tensor.Data))
					if arrays[p] {
						t.Fatalf("message %d arrived in an array the sender or another delivery holds", m.Minibatch)
					}
					arrays[p] = true
					held = append(held, m.Tensor)
					if seen[m.Minibatch]++; len(seen) == msgs {
						quiet = 50 * time.Millisecond
					}
					continue
				case <-time.After(quiet):
				}
				break
			}
			if len(seen) != msgs {
				t.Fatalf("%d of %d messages arrived", len(seen), msgs)
			}
			if duplicated := len(held) > msgs; duplicated != c.dups {
				t.Fatalf("%d deliveries of %d messages, duplicates expected: %v", len(held), msgs, c.dups)
			}
			for _, x := range held {
				tensor.Put(x)
			}
			for i, v := range base {
				want := float32(sentinel)
				if i >= 2*n && i < 3*n {
					want = scrubbed
				}
				if v != want {
					t.Fatalf("the sender's array[%d] = %v after the receiver's Puts, want %v", i, v, want)
				}
			}
		})
	}
}
