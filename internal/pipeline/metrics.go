package pipeline

import (
	"fmt"
	"strings"
	"time"

	"pipedream/internal/metrics"
	"pipedream/internal/tensor"
)

// StageStats is one worker's runtime statistics for a single Train
// call — the measured counterpart of the quantities the
// paper's Figure 5 argues from. Populated only when instrumentation is
// enabled (Options.Metrics or Options.OpLog non-nil).
type StageStats struct {
	// Worker is the global worker index; Stage/Replica locate it in the
	// plan.
	Worker, Stage, Replica int
	// FwdOps and BwdOps count completed forward and backward passes.
	FwdOps, BwdOps int
	// FwdTime and BwdTime are total compute time in each direction: they
	// exclude SendTime, and BwdTime excludes gradient-sync waiting.
	FwdTime, BwdTime time.Duration
	// SendTime is total time blocked in the transport's Send: a forward's
	// activation sends and a backward's upstream-gradient sends (on TCP,
	// the socket writes). Ring all-reduce traffic is not in it.
	SendTime time.Duration
	// SyncWait is total time blocked in replicated-stage gradient
	// all_reduce (zero for unreplicated stages).
	SyncWait time.Duration
	// SyncFirstWait is the portion of SyncWait spent before the round's
	// first gradient bucket finished reducing, and SyncTailWait the
	// remainder (they sum to SyncWait). A small first wait means buckets
	// were already reducing during backward compute.
	SyncFirstWait time.Duration
	SyncTailWait  time.Duration
	// WireBytes is the cumulative gradient-chunk payload this worker put
	// on the wire for ring all-reduce (zero for unreplicated stages).
	WireBytes int64
	// Idle is total time blocked waiting for a message with nothing
	// runnable — the directly observed pipeline bubble.
	Idle time.Duration
	// Wall is this worker's wall-clock time inside the run loop.
	Wall time.Duration
	// BubbleFraction is 1 − (FwdTime+BwdTime)/Wall: the fraction of the
	// worker's wall time not spent computing (idle + sends + sync stalls
	// + scheduling overhead). The steady-state ideal is ~0 for the
	// bottleneck stage and grows with pipeline imbalance.
	BubbleFraction float64
	// MeanQueueDepth and PeakQueueDepth summarize how many arrived
	// activations and gradients wait for their turn in the worker's
	// schedule, sampled once per op — sustained depth means upstream
	// stages outpace this one (backpressure).
	MeanQueueDepth float64
	PeakQueueDepth int
	// MeanStaleness and MaxStaleness summarize, per backward pass, how
	// many local optimizer updates were applied between a minibatch's
	// forward and backward — the weight-version distance that stashing
	// (§3.3) compensates for. Bounded by pipeline depth.
	MeanStaleness float64
	MaxStaleness  int
	// PeakStashBytes is the worker's lifetime peak of stashed weights +
	// activations (same number as Report.PeakStashBytes).
	PeakStashBytes int64
}

// workerMetrics is one worker's instrumentation state. The plain fields
// are touched only by the owning worker goroutine and reset every run;
// the registry instruments are shared, atomic, and accumulate for the
// life of the process (that is what an external scraper wants).
type workerMetrics struct {
	oplog *metrics.OpLog

	fwdHist    *metrics.Histogram // op durations, µs
	bwdHist    *metrics.Histogram
	syncHist   *metrics.Histogram
	firstHist  *metrics.Histogram // sync wait before the first bucket, µs
	tailHist   *metrics.Histogram // sync wait after the first bucket, µs
	bucketHist *metrics.Histogram // per-bucket completion waits, µs
	depthHist  *metrics.Histogram // queue-depth samples
	staleHist  *metrics.Histogram // staleness, in local updates
	stash      *metrics.Gauge     // live stash bytes
	wire       *metrics.Gauge     // cumulative ring chunk bytes on the wire

	runStart  time.Time
	wall      time.Duration
	fwdOps    int
	bwdOps    int
	fwdTime   time.Duration
	bwdTime   time.Duration
	sendTime  time.Duration
	opSend    time.Duration // Send time of the op in progress
	syncTime  time.Duration
	syncFirst time.Duration
	syncTail  time.Duration
	idleTime  time.Duration

	queueSum     int64
	queueSamples int64
	peakQueue    int
	staleSum     int64
	maxStale     int
}

// newWorkerMetrics builds the instrumentation state for one worker,
// registering its instruments under pipeline.s<stage>.r<replica>.* when a
// registry is supplied. Either reg or oplog may be nil.
func newWorkerMetrics(reg *metrics.Registry, oplog *metrics.OpLog, stage, replica int) *workerMetrics {
	wm := &workerMetrics{oplog: oplog}
	if reg != nil {
		prefix := fmt.Sprintf("pipeline.s%d.r%d.", stage, replica)
		wm.fwdHist = reg.Histogram(prefix+"forward_us", metrics.DurationBuckets())
		wm.bwdHist = reg.Histogram(prefix+"backward_us", metrics.DurationBuckets())
		wm.syncHist = reg.Histogram(prefix+"sync_wait_us", metrics.DurationBuckets())
		wm.firstHist = reg.Histogram(prefix+"sync_first_us", metrics.DurationBuckets())
		wm.tailHist = reg.Histogram(prefix+"sync_tail_us", metrics.DurationBuckets())
		wm.bucketHist = reg.Histogram(prefix+"sync_bucket_us", metrics.DurationBuckets())
		wm.depthHist = reg.Histogram(prefix+"queue_depth", metrics.DepthBuckets())
		wm.staleHist = reg.Histogram(prefix+"staleness", metrics.DepthBuckets())
		wm.stash = reg.Gauge(prefix + "stash_bytes")
		wm.wire = reg.Gauge(prefix + "wire_bytes")
	}
	return wm
}

// beginRun resets the per-run fields at the top of a Train (or solo Run)
// call. A call may execute several chunk spans (checkpoint barriers,
// recovery retries); beginSpan/endSpan bracket each one and accumulate.
func (wm *workerMetrics) beginRun() {
	*wm = workerMetrics{
		oplog: wm.oplog, fwdHist: wm.fwdHist, bwdHist: wm.bwdHist,
		syncHist: wm.syncHist, firstHist: wm.firstHist, tailHist: wm.tailHist,
		bucketHist: wm.bucketHist, depthHist: wm.depthHist,
		staleHist: wm.staleHist, stash: wm.stash, wire: wm.wire,
	}
}

// beginSpan marks the start of one chunk's run loop.
func (wm *workerMetrics) beginSpan() { wm.runStart = time.Now() }

// endSpan folds the chunk's wall-clock time into the run total.
func (wm *workerMetrics) endSpan() { wm.wall += time.Since(wm.runStart) }

// sampleQueues records how many arrived inputs wait at the start of one
// op.
func (wm *workerMetrics) sampleQueues(depth int) {
	wm.queueSum += int64(depth)
	wm.queueSamples++
	if depth > wm.peakQueue {
		wm.peakQueue = depth
	}
	if wm.depthHist != nil {
		wm.depthHist.Observe(float64(depth))
	}
}

// forwardDone records one completed forward pass: its compute time is
// its duration less its sends.
func (wm *workerMetrics) forwardDone(sw *stageWorker, mb int, start time.Time) {
	d := time.Since(start)
	compute := d - wm.opSend
	wm.sendTime += wm.opSend
	wm.opSend = 0
	wm.fwdOps++
	wm.fwdTime += compute
	if wm.fwdHist != nil {
		wm.fwdHist.Observe(float64(compute.Microseconds()))
	}
	if wm.oplog != nil {
		wm.oplog.Record(metrics.OpEvent{
			Worker: sw.id, Stage: sw.stage, Replica: sw.replica,
			Minibatch: mb, Kind: metrics.OpForward, Dur: d,
		}, start)
	}
}

// observeBucketWait records the wait between consecutive ring-bucket
// completions during the sync drain (n buckets finished after waiting d).
func (wm *workerMetrics) observeBucketWait(d time.Duration, n int) {
	if wm.bucketHist == nil {
		return
	}
	for i := 0; i < n; i++ {
		wm.bucketHist.Observe(float64(d.Microseconds()))
	}
}

// backwardDone records one completed backward pass: its full duration,
// its compute time (less its sends and sync wait), when its upstream
// gradient left (gradUp), the sync-wait sub-span (nested inside it on the
// trace timeline) split into before-first-bucket and tail portions, and
// the observed weight-version staleness.
func (wm *workerMetrics) backwardDone(sw *stageWorker, mb int, start time.Time, gradUp time.Duration, syncStart time.Time, syncDur, syncFirst time.Duration, staleness int) {
	d := time.Since(start)
	if syncFirst > syncDur {
		syncFirst = syncDur
	}
	syncTail := syncDur - syncFirst
	compute := d - syncDur - wm.opSend
	wm.sendTime += wm.opSend
	wm.opSend = 0
	wm.bwdOps++
	wm.bwdTime += compute
	wm.syncTime += syncDur
	wm.syncFirst += syncFirst
	wm.syncTail += syncTail
	wm.staleSum += int64(staleness)
	if staleness > wm.maxStale {
		wm.maxStale = staleness
	}
	if wm.bwdHist != nil {
		wm.bwdHist.Observe(float64(compute.Microseconds()))
		wm.staleHist.Observe(float64(staleness))
		if syncDur > 0 {
			wm.syncHist.Observe(float64(syncDur.Microseconds()))
			wm.firstHist.Observe(float64(syncFirst.Microseconds()))
			wm.tailHist.Observe(float64(syncTail.Microseconds()))
		}
	}
	if wm.oplog != nil {
		wm.oplog.Record(metrics.OpEvent{
			Worker: sw.id, Stage: sw.stage, Replica: sw.replica,
			Minibatch: mb, Kind: metrics.OpBackward, Dur: d, Staleness: staleness, GradUp: gradUp,
		}, start)
		if syncDur > 0 {
			wm.oplog.Record(metrics.OpEvent{
				Worker: sw.id, Stage: sw.stage, Replica: sw.replica,
				Minibatch: mb, Kind: metrics.OpSync, Dur: syncDur,
			}, syncStart)
		}
	}
}

// stats summarizes the run into the Report's per-stage entry.
func (wm *workerMetrics) stats(sw *stageWorker) StageStats {
	s := StageStats{
		Worker: sw.id, Stage: sw.stage, Replica: sw.replica,
		FwdOps: wm.fwdOps, BwdOps: wm.bwdOps,
		FwdTime: wm.fwdTime, BwdTime: wm.bwdTime, SendTime: wm.sendTime,
		SyncWait: wm.syncTime, SyncFirstWait: wm.syncFirst, SyncTailWait: wm.syncTail,
		Idle: wm.idleTime, Wall: wm.wall,
		PeakQueueDepth: wm.peakQueue, MaxStaleness: wm.maxStale,
		PeakStashBytes: sw.peakStashBytes,
	}
	if sw.ring != nil {
		s.WireBytes = sw.ring.WireBytes()
		if wm.wire != nil {
			wm.wire.Set(s.WireBytes)
		}
	}
	if wm.wall > 0 {
		s.BubbleFraction = 1 - float64(wm.fwdTime+wm.bwdTime)/float64(wm.wall)
		if s.BubbleFraction < 0 {
			s.BubbleFraction = 0
		}
	}
	if wm.queueSamples > 0 {
		s.MeanQueueDepth = float64(wm.queueSum) / float64(wm.queueSamples)
	}
	if wm.bwdOps > 0 {
		s.MeanStaleness = float64(wm.staleSum) / float64(wm.bwdOps)
	}
	return s
}

// publishPoolCounters copies the tensor arena's cumulative traffic into
// the registry so JSON snapshots carry the allocator picture alongside
// the pipeline's.
func publishPoolCounters(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	hits, misses, puts := tensor.PoolCounters()
	reg.Gauge("tensor.pool.hits").Set(hits)
	reg.Gauge("tensor.pool.misses").Set(misses)
	reg.Gauge("tensor.pool.puts").Set(puts)
}

// StageSummary renders the per-stage statistics as a human-readable
// table (empty string when instrumentation was off). Durations are
// totals over the Train call; bubble is the per-worker bubble fraction.
func (r *Report) StageSummary() string {
	if len(r.Stages) == 0 && len(r.Rescales) == 0 {
		return ""
	}
	var b strings.Builder
	if len(r.Stages) > 0 {
		fmt.Fprintf(&b, "%-8s %-6s %6s %10s %10s %10s %10s %10s %10s %10s %7s %11s %10s %10s %8s\n",
			"worker", "stage", "ops", "fwd", "bwd", "send", "sync", "sync1st", "synctail", "idle", "bubble", "queue(µ/pk)", "stale(µ/mx)", "stash", "wire")
		for _, s := range r.Stages {
			fmt.Fprintf(&b, "%-8d %d/%-4d %6d %10s %10s %10s %10s %10s %10s %10s %6.1f%% %5.1f/%-5d %6.1f/%-3d %10s %8s\n",
				s.Worker, s.Stage, s.Replica, s.FwdOps+s.BwdOps,
				roundDur(s.FwdTime), roundDur(s.BwdTime), roundDur(s.SendTime), roundDur(s.SyncWait),
				roundDur(s.SyncFirstWait), roundDur(s.SyncTailWait), roundDur(s.Idle),
				100*s.BubbleFraction, s.MeanQueueDepth, s.PeakQueueDepth,
				s.MeanStaleness, s.MaxStaleness, fmtBytes(s.PeakStashBytes), fmtBytes(s.WireBytes))
		}
	}
	f := r.Faults
	if f.Recoveries > 0 || f.CheckpointWrites > 0 || f.TransportReconnects > 0 || f.TransportSendErrors > 0 || f.TransportRecvErrors > 0 {
		fmt.Fprintf(&b, "faults: %d recoveries, %d checkpoint writes, %d transport reconnects, %d send errors, %d receive errors\n",
			f.Recoveries, f.CheckpointWrites, f.TransportReconnects, f.TransportSendErrors, f.TransportRecvErrors)
	}
	for _, rs := range r.Rescales {
		fmt.Fprintf(&b, "%s\n", rs)
	}
	if len(r.Rescales) > 0 {
		fmt.Fprintf(&b, "membership epoch: %d\n", r.MembershipEpoch)
	}
	return b.String()
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(time.Microsecond).String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
