// Package collective implements gradient synchronization for replicated
// pipeline stages. PipeDream's hybrid parallelism (§3.1 of the paper)
// replicates fast stages and averages their weight gradients every round
// with one collective: RingReducer, a chunked ring all-reduce
// (reduce-scatter followed by all-gather) over transport messages.
// Gradients are split into buckets that start reducing as soon as their
// layers' backward completes, overlapping synchronization with the
// remaining backward compute. Each replica moves 2(R-1)/R of the weight
// bytes, matching the cost the partitioning DP charges for replication.
//
// The ring accumulates chunk c as g_c + g_{c+1} + ... regardless of
// message timing, so results are bit-identical run to run.
package collective

import "pipedream/internal/transport"

// Method names the gradient collective of replicated stages.
//
// Deprecated: the only value is Ring, the zero value; the type is kept
// for the benchmark harness, which still names it.
type Method int

// Ring is the chunked ring all-reduce with backward/sync overlap
// (RingReducer), working over both in-process channels and TCP.
//
// Deprecated: the only value of Method.
const Ring Method = 0

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
