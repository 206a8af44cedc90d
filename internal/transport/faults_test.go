package transport

import (
	"errors"
	"testing"
	"time"
)

func TestChannelsSendAfterCloseReturnsErrClosed(t *testing.T) {
	c := NewChannels(2, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, sampleMessage(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

func TestTCPReconnectsAfterBrokenConnection(t *testing.T) {
	tr, err := NewTCP(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(1, sampleMessage(0)); err != nil {
		t.Fatal(err)
	}
	<-tr.Inbox(1)
	// Sever the cached outbound connection; the next Send must detect the
	// dead socket and transparently re-dial.
	tr.BreakConn(1)
	if err := tr.Send(1, sampleMessage(1)); err != nil {
		t.Fatalf("send after broken connection: %v", err)
	}
	select {
	case m := <-tr.Inbox(1):
		if m.Minibatch != 1 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered after reconnect")
	}
}

func TestTCPSendToDeadPeerReturnsErrPeerDown(t *testing.T) {
	addrs := freeAddrs(t, 2) // addrs[1] reserved but nobody listens
	a, err := ListenTCP(addrs, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.RedialTimeout = 200 * time.Millisecond
	err = a.Send(1, sampleMessage(0))
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to dead peer: %v, want ErrPeerDown", err)
	}
	if s := a.Stats(); s.SendErrors == 0 {
		t.Fatal("send errors not counted")
	}
}

func TestTCPReconnectsAfterPeerRestart(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, err := ListenTCP(addrs, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.RedialTimeout = 5 * time.Second
	b1, err := ListenTCP(addrs, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, sampleMessage(0)); err != nil {
		t.Fatal(err)
	}
	<-b1.Inbox(1)
	// Kill peer 1 and restart it on the same address: the satellite fix —
	// a's cached connection to the dead process must be invalidated and
	// re-dialed, not reused.
	b1.Close()
	b2, err := ListenTCP(addrs, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	var sendErr error
	for i := 0; i < 3; i++ {
		// The first send after the restart may be swallowed by the dead
		// socket's buffer (a half-open TCP connection accepts one write
		// before RST); subsequent sends detect the failure and re-dial.
		sendErr = a.Send(1, sampleMessage(10+i))
		if sendErr != nil {
			break
		}
	}
	if sendErr != nil {
		t.Fatalf("send after peer restart: %v", sendErr)
	}
	select {
	case m := <-b2.Inbox(1):
		if m.Minibatch < 10 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restarted peer never received a message")
	}
}

func TestTCPSendAfterCloseReturnsErrClosed(t *testing.T) {
	tr, err := NewTCP(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, sampleMessage(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{Reconnects: 5, SendErrors: 7, Drops: 1}
	b := Stats{Reconnects: 2, SendErrors: 3}
	d := a.Sub(b)
	if d.Reconnects != 3 || d.SendErrors != 4 || d.Drops != 1 {
		t.Fatalf("Sub: %+v", d)
	}
	s := a.Add(b)
	if s.Reconnects != 7 || s.SendErrors != 10 {
		t.Fatalf("Add: %+v", s)
	}
}

// One unreachable peer must not delay traffic to healthy ones: a Send
// retrying a dead address sleeps and dials without the connection-map
// lock, so a concurrent Send to a live peer — first contact and cached —
// completes at once instead of queueing behind the redial budget.
func TestTCPDeadPeerDoesNotBlockSendsToLivePeers(t *testing.T) {
	addrs := freeAddrs(t, 3) // addrs[2] reserved but nobody listens
	a, err := ListenTCP(addrs, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.RedialTimeout = 2 * time.Second
	b, err := ListenTCP(addrs, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stuck := make(chan error, 1)
	go func() { stuck <- a.Send(2, sampleMessage(0)) }()
	for a.Stats().SendErrors == 0 { // the dead dial is now in its backoff loop
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	for i := 0; i < 3; i++ { // first contact, then the cached connection
		if err := a.Send(1, sampleMessage(i)); err != nil {
			t.Fatal(err)
		}
		<-b.Inbox(1)
	}
	if d := time.Since(start); d > a.RedialTimeout/4 {
		t.Fatalf("sends to a live peer took %v while another Send was redialing a dead one (budget %v)", d, a.RedialTimeout)
	}
	select {
	case err := <-stuck:
		t.Fatalf("send to the dead peer returned early (%v): the test exercised nothing", err)
	default:
	}
	if err := <-stuck; !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to dead peer: %v, want ErrPeerDown", err)
	}
}
