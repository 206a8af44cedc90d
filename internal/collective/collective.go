// Package collective implements gradient synchronization for replicated
// pipeline stages. PipeDream's hybrid parallelism (§3.1 of the paper)
// replicates fast stages and averages their weight gradients every round.
// The runtime has two collectives for that average, selected by Method:
//
//   - Ring — RingReducer, a chunked ring all-reduce (reduce-scatter
//     followed by all-gather) over transport messages. Gradients are split
//     into buckets that start reducing as soon as their layers' backward
//     completes, overlapping synchronization with the remaining backward
//     compute. Each replica moves 2(R-1)/R of the weight bytes, matching
//     the cost the partitioning DP charges for replication.
//   - Central — the full-gradient exchange the pipeline runtime implements
//     itself (every replica sends its gradients to each sibling after
//     backward, no overlap); this package only names it.
//
// Both sum in a fixed order — the ring accumulates chunk c as g_c +
// g_{c+1} + ... regardless of message timing, the exchange adds
// contributions in ascending replica index — so results are bit-identical
// run to run.
package collective

import (
	"fmt"

	"pipedream/internal/transport"
)

// Method selects the gradient-synchronization collective for replicated
// stages.
type Method int

// Supported collectives. The zero value is Central.
const (
	// Central is the full-gradient exchange: every replica sends its
	// gradients to each sibling over the transport and all sum the
	// contributions in ascending replica order.
	Central Method = iota
	// Ring is the chunked ring all-reduce with backward/sync overlap
	// (RingReducer), working over both in-process channels and TCP.
	Ring
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Central:
		return "central"
	case Ring:
		return "ring"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod maps a -allreduce flag value to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "central":
		return Central, nil
	case "ring":
		return Ring, nil
	}
	return Central, fmt.Errorf("collective: unknown all-reduce method %q (want ring or central)", s)
}

// Sender is the transport slice the ring collective needs: point-to-point
// delivery to a peer's inbox. transport.Transport satisfies it.
type Sender interface {
	// Send delivers m to worker `to`'s inbox.
	Send(to int, m transport.Message) error
}

// DefaultBucketBytes is the gradient bucket size used when the caller
// does not specify one: large enough to amortize per-message overhead.
// It is a floor, not a cap: a bucket is whole tensors and closes on the
// first one that takes it to this size, so a tensor larger than it is a
// bucket of its own size (a 1 MB weight matrix is one 1 MB bucket, with
// whatever smaller tensors precede it), and a bucket starts reducing
// only when the backward of the earliest layer in it has finished.
const DefaultBucketBytes = 256 << 10
