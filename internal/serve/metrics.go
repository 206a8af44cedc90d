package serve

import (
	"fmt"
	"time"

	"pipedream/internal/metrics"
)

// serverMetrics holds the server's instruments, fetched once at startup
// so hot paths never touch the registry's lock. When no registry is
// configured they live in a private one (still live, still cheap) so
// recording code needs no nil checks and Stats always works. Each name
// below follows the server's metrics prefix, "serve." by default.
type serverMetrics struct {
	requests  *metrics.Counter // serve.requests: Infer calls admitted to validation
	rows      *metrics.Counter // serve.rows: input rows across all requests
	shed      *metrics.Counter // serve.shed: requests rejected with ErrOverloaded
	batches   *metrics.Counter // serve.batches: pipeline batches dispatched
	responses *metrics.Counter // serve.responses: requests completed successfully
	errors    *metrics.Counter // serve.errors: requests completed with an error

	swaps *metrics.Counter // serve.swaps: weight hot-swaps installed

	batchRows   *metrics.Histogram // serve.batch_rows: rows per dispatched batch
	latency     *metrics.Histogram // serve.latency_us: request latency, admission→response
	batchWait   *metrics.Histogram // serve.batch_wait_us: request wait in the batcher, admission→dispatch
	swapLatency *metrics.Histogram // serve.swap_latency_us: SwapModel slice-and-flip time
	queueDepth  *metrics.Gauge     // serve.queue_depth: submit-queue depth after enqueue
	weightGen   *metrics.Gauge     // serve.weight_generation: generation new requests board

	stageForward []*metrics.Histogram // serve.s<i>.forward_us: per-stage forward time

	oplog *metrics.OpLog
}

func newServerMetrics(reg *metrics.Registry, prefix string, oplog *metrics.OpLog, stages int) *serverMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if prefix == "" {
		prefix = "serve."
	}
	m := &serverMetrics{oplog: oplog, stageForward: make([]*metrics.Histogram, stages)}
	m.requests = reg.Counter(prefix + "requests")
	m.rows = reg.Counter(prefix + "rows")
	m.shed = reg.Counter(prefix + "shed")
	m.batches = reg.Counter(prefix + "batches")
	m.responses = reg.Counter(prefix + "responses")
	m.errors = reg.Counter(prefix + "errors")
	m.swaps = reg.Counter(prefix + "swaps")
	m.batchRows = reg.Histogram(prefix+"batch_rows", metrics.DepthBuckets())
	m.latency = reg.Histogram(prefix+"latency_us", metrics.LatencyBuckets())
	m.batchWait = reg.Histogram(prefix+"batch_wait_us", metrics.LatencyBuckets())
	m.swapLatency = reg.Histogram(prefix+"swap_latency_us", metrics.LatencyBuckets())
	m.queueDepth = reg.Gauge(prefix + "queue_depth")
	m.weightGen = reg.Gauge(prefix + "weight_generation")
	for i := range m.stageForward {
		m.stageForward[i] = reg.Histogram(fmt.Sprintf("%ss%d.forward_us", prefix, i), metrics.DurationBuckets())
	}
	return m
}

// observeBatchWait records one request's wait in the batcher, from
// admission at enq to the dispatch of batch id at now.
func (m *serverMetrics) observeBatchWait(enq, now time.Time, client, id int) {
	wait := now.Sub(enq)
	m.batchWait.Observe(float64(wait.Microseconds()))
	if m.oplog != nil {
		m.oplog.Record(metrics.OpEvent{Worker: client, Stage: client, Minibatch: id, Kind: metrics.OpQueue, Dur: wait}, enq)
	}
}

// Stats is a point-in-time summary of a server's counters and latency
// quantiles — what a health endpoint or load generator reports without
// scraping the full registry snapshot.
type Stats struct {
	// Requests is the number of Infer calls admitted to validation.
	Requests int64
	// Rows is the total input rows across all requests.
	Rows int64
	// Responses is the number of requests answered successfully.
	Responses int64
	// Shed is the number of requests rejected with ErrOverloaded.
	Shed int64
	// Errors is the number of requests that completed with an error.
	Errors int64
	// Batches is the number of pipeline batches dispatched; Rows/Batches
	// is the realized dynamic-batching factor.
	Batches int64
	// MeanBatchRows is the mean rows per dispatched batch.
	MeanBatchRows float64
	// WeightGeneration is the checkpoint generation new requests are
	// served with; it advances on every hot-swap.
	WeightGeneration int64
	// Swaps is the number of weight hot-swaps installed since startup.
	Swaps int64
	// P50Micros, P95Micros, and P99Micros are bucketed upper bounds on
	// the request latency quantiles, in microseconds.
	P50Micros, P95Micros, P99Micros float64
	// BatchWaitP50Micros is the same bound on the median wait in the
	// batcher: near zero at rest, up to BatchTimeout behind a busy stage 0.
	BatchWaitP50Micros float64
}

// Stats returns a point-in-time summary of the server's activity.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:           s.met.requests.Value(),
		Rows:               s.met.rows.Value(),
		Responses:          s.met.responses.Value(),
		Shed:               s.met.shed.Value(),
		Errors:             s.met.errors.Value(),
		Batches:            s.met.batches.Value(),
		MeanBatchRows:      s.met.batchRows.Mean(),
		WeightGeneration:   s.met.weightGen.Value(),
		Swaps:              s.met.swaps.Value(),
		P50Micros:          s.met.latency.Quantile(0.50),
		P95Micros:          s.met.latency.Quantile(0.95),
		P99Micros:          s.met.latency.Quantile(0.99),
		BatchWaitP50Micros: s.met.batchWait.Quantile(0.50),
	}
}
