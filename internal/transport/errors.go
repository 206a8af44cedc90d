package transport

import (
	"errors"
	"sync/atomic"
)

// Typed transport failures. Callers match them with errors.Is: a Send that
// fails with ErrPeerDown after exhausting its reconnect budget means the
// destination worker is unreachable (dead process, severed link); ErrClosed
// means this endpoint was shut down locally. Neither is ever a panic — the
// failure path is a first-class, testable code path.
var (
	// ErrPeerDown reports that a destination worker could not be reached
	// even after reconnect-with-backoff.
	ErrPeerDown = errors.New("transport: peer down")
	// ErrClosed reports that the local transport endpoint has been closed.
	ErrClosed = errors.New("transport: closed")
)

// Stats is a point-in-time snapshot of a transport's failure-path
// activity. All fields are cumulative since the transport was created;
// subtract two snapshots (Sub) to get the activity of one interval.
type Stats struct {
	// Reconnects counts connections re-established after a send failure
	// (broken pipe, peer restart, severed link).
	Reconnects int64
	// SendErrors counts individual message writes that failed (each may be
	// followed by a successful reconnect-and-retry).
	SendErrors int64
	// RecvErrors counts inbound connections that ended in a frame that
	// could not be decoded — truncated by a dying sender, or corrupt.
	// Nothing of such a frame is delivered.
	RecvErrors int64
	// Drops, Delays, Dups, Severed, and Killed count fault injections by a
	// Chaos wrapper; zero for real transports.
	Drops   int64
	Delays  int64
	Dups    int64
	Severed int64
	Killed  int64
}

// Sub returns the element-wise difference s − prev: the activity between
// two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reconnects: s.Reconnects - prev.Reconnects,
		SendErrors: s.SendErrors - prev.SendErrors,
		RecvErrors: s.RecvErrors - prev.RecvErrors,
		Drops:      s.Drops - prev.Drops,
		Delays:     s.Delays - prev.Delays,
		Dups:       s.Dups - prev.Dups,
		Severed:    s.Severed - prev.Severed,
		Killed:     s.Killed - prev.Killed,
	}
}

// Add returns the element-wise sum s + other.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		Reconnects: s.Reconnects + other.Reconnects,
		SendErrors: s.SendErrors + other.SendErrors,
		RecvErrors: s.RecvErrors + other.RecvErrors,
		Drops:      s.Drops + other.Drops,
		Delays:     s.Delays + other.Delays,
		Dups:       s.Dups + other.Dups,
		Severed:    s.Severed + other.Severed,
		Killed:     s.Killed + other.Killed,
	}
}

// StatsReporter is implemented by transports that track failure-path
// counters. The pipeline polls it after each Train/Run call to publish
// transport.reconnects, transport.send_errors and transport.recv_errors
// into its metrics registry.
type StatsReporter interface {
	// Stats returns the cumulative counters.
	Stats() Stats
}

// statsCounters is the internal atomic backing for Stats.
type statsCounters struct {
	reconnects atomic.Int64
	sendErrors atomic.Int64
	recvErrors atomic.Int64
	drops      atomic.Int64
	delays     atomic.Int64
	dups       atomic.Int64
	severed    atomic.Int64
	killed     atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		Reconnects: c.reconnects.Load(),
		SendErrors: c.sendErrors.Load(),
		RecvErrors: c.recvErrors.Load(),
		Drops:      c.drops.Load(),
		Delays:     c.delays.Load(),
		Dups:       c.dups.Load(),
		Severed:    c.severed.Load(),
		Killed:     c.killed.Load(),
	}
}
