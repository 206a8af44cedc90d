//go:build linux

package transport

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"
)

// hangingAddr returns a loopback address on which a dial blocks instead of
// failing: a listener whose accept queue (backlog 0) is full, so the kernel
// drops further SYNs. It skips the test if the host does not behave so.
func hangingAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	rc, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	rc.Control(func(fd uintptr) { err = syscall.Listen(int(fd), 0) })
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	for i := 0; i < 8; i++ { // nobody accepts: these fill the queue
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return addr
			}
			t.Fatalf("filling the accept queue: %v", err)
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Skip("dials to a full accept queue do not block on this host")
	return ""
}

// A Send whose dial is blocked (a blackholed host, not a refused port) is
// bounded by its own redial budget, and Close interrupts it at once.
func TestTCPDialHonoursSendDeadlineAndClose(t *testing.T) {
	addrs := append(freeAddrs(t, 1), hangingAddr(t))
	a, err := ListenTCP(addrs, []int{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.RedialTimeout = 300 * time.Millisecond
	start := time.Now()
	if err := a.Send(1, sampleMessage(0)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to a blackholed peer: %v, want ErrPeerDown", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("send took %v with a %v redial budget", d, a.RedialTimeout)
	}

	a.RedialTimeout = time.Minute
	done := make(chan error, 1)
	go func() { done <- a.Send(1, sampleMessage(1)) }()
	time.Sleep(100 * time.Millisecond) // let it block in the dial
	select {
	case err := <-done:
		t.Fatalf("send returned before Close (%v): the test exercised nothing", err)
	default:
	}
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("send interrupted by Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a Send that was dialing")
	}
}
