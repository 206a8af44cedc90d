// Command pipedream-serve is the inference front-end of the PipeDream
// reproduction: it loads trained checkpoints (written by pipedream-train,
// in one process or one per worker), partitions each model onto
// forward-only stage pipelines, and serves HTTP inference requests
// through a replicated, multi-tenant fleet with dynamic batching and
// per-tenant admission control.
//
// Serve a checkpointed spiral model on 2 stages, 3 replicas:
//
//	pipedream-train -task spiral -epochs 8 -checkpoint-dir /tmp/ckpt
//	pipedream-serve -task spiral -stages 2 -replicas 3 -checkpoint-dir /tmp/ckpt -addr :8080
//
// -replicas here means data-parallel serving replicas: whole-pipeline
// copies behind a router (-route round-robin | least-in-flight |
// shape-affinity). -models adds more tenants — several checkpoints of
// the same task served from one process, each with its own weight
// lineage and admission quota:
//
//	pipedream-serve -task spiral -checkpoint-dir /tmp/prod -models canary=/tmp/canary
//
// Follow live trainers with -follow: every tenant keeps polling its
// checkpoint directory (one follower per tenant, one load per
// generation) and hot-swaps each newer complete generation into all its
// running replicas with zero downtime — in-flight requests finish on
// the weights they started with (see docs/SERVING.md):
//
//	pipedream-serve -task spiral -stages 2 -checkpoint-dir /tmp/ckpt -follow -poll-interval 500ms
//
// Endpoints:
//
//	POST /infer[?model=name][&head=stage]
//	                          {"inputs": [[...row floats...], ...]} →
//	                          {"outputs": [[...]], "argmax": [...]}
//	                          (model defaults to the -checkpoint-dir tenant;
//	                          head targets one output head of a DAG plan and
//	                          defaults to the last stage)
//	GET  /healthz             default tenant's aggregated serving stats,
//	                          plus per-tenant/per-replica fleet stats
//	GET  /metrics             full expvar-style metrics snapshot
//
// The serving plan is independent of the training plan: checkpoints store
// per-stage parameter shards that reassemble into the full model, so a
// model trained on 3 stages can serve on 1, 2, or 4.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/cliconf"
	"pipedream/internal/metrics"
	"pipedream/internal/serve"
	"pipedream/internal/serve/fleet"
	"pipedream/internal/tensor"
)

// maxInferBody bounds the /infer request body; a request that does not
// end within it fails decoding with a 400 instead of ballooning memory.
const maxInferBody = 1 << 20

// maxInferRows bounds the rows in one /infer request — the dynamic
// batcher coalesces across requests, so huge single requests buy no
// throughput and only add head-of-line latency.
const maxInferRows = 1024

func main() {
	mdl := &cliconf.Model{Task: "spiral", Seed: 42, Stages: 2, Replicas: 1}
	flt := &cliconf.Fleet{Replicas: 1}
	obsFlags := &cliconf.Obs{}
	fs := flag.CommandLine
	// Forward-only flags: RegisterForward declares no -replicas, so the
	// fleet group's -replicas (serving replicas) is unambiguous.
	mdl.RegisterForward(fs)
	flt.Register(fs)
	obsFlags.Register(fs)
	ckptDir := flag.String("checkpoint-dir", "", "default tenant's checkpoint directory (\"\" serves freshly initialized weights)")
	follow := flag.Bool("follow", false, "keep polling every tenant's checkpoint directory and hot-swap newer generations into the live replicas")
	pollInterval := flag.Duration("poll-interval", time.Second, "how often -follow polls each checkpoint directory")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "max rows coalesced into one pipeline batch (1 disables dynamic batching)")
	batchTimeout := flag.Duration("batch-timeout", serve.DefaultBatchTimeout, "longest a partial batch keeps collecting while stage 0 is busy (an idle pipeline dispatches at once)")
	queueCap := flag.Int("queue-cap", serve.DefaultQueueCap, "max requests waiting for batching per replica before new ones are shed with 429")
	maxInFlight := flag.Int("max-inflight", 0, "max batches concurrently inside each replica's stage pipeline (0 = 2x stages)")
	healthRate := flag.Float64("health-error-rate", 0, "sliding-window failure rate at which a replica is ejected from routing, 0..1 (0 disables router health checks)")
	healthCooldown := flag.Duration("health-cooldown", time.Second, "how long an ejected replica sits out before probation")
	flag.Parse()

	task, err := mdl.Build()
	if err != nil {
		fatal(err)
	}
	extraModels, err := flt.ParseModels()
	if err != nil {
		fatal(err)
	}
	policy, err := fleet.ParsePolicy(flt.Route)
	if err != nil {
		fatal(err)
	}
	if *follow && *ckptDir == "" && len(extraModels) == 0 {
		fatal(errors.New("-follow requires -checkpoint-dir or -models"))
	}

	// The eval set knows the task's per-row input shape; validating
	// against it turns malformed requests into 400s instead of batch
	// failures.
	inputShape := append([]int(nil), task.Eval.Batch(0).X.Shape[1:]...)

	// Tenant list: the default tenant (named after the task, loaded from
	// -checkpoint-dir) plus one tenant per -models entry. All tenants run
	// the same architecture; each loads its own weight lineage.
	specs := append([]cliconf.FleetModel{{Name: mdl.Task, Dir: *ckptDir}}, extraModels...)
	// One architecture, one plan: every tenant runs the same cut.
	plan, err := mdl.ServePlan(task)
	if err != nil {
		fatal(err)
	}
	tenants := make([]fleet.TenantConfig, 0, len(specs))
	for _, spec := range specs {
		model, cursor := task.Factory(), 0
		switch {
		case spec.Dir == "":
			fmt.Printf("warning: tenant %s has no checkpoint directory, serving freshly initialized weights\n", spec.Name)
		default:
			model, cursor, err = checkpoint.LoadModel(spec.Dir, task.Factory)
			switch {
			case err == nil:
				fmt.Printf("tenant %s: loaded checkpoint from %s (trained to minibatch %d)\n", spec.Name, spec.Dir, cursor)
			case *follow:
				// Under -follow an empty directory is the normal cold
				// start: the trainer has not checkpointed yet, so serve
				// fresh weights and let the follower pick up generation 1.
				model, cursor = task.Factory(), 0
				fmt.Printf("tenant %s: no checkpoint in %s yet, serving fresh weights until one appears\n", spec.Name, spec.Dir)
			default:
				fatal(err)
			}
		}
		tenants = append(tenants, fleet.TenantConfig{
			Name: spec.Name,
			Server: serve.Config{
				Model:            model,
				Plan:             plan,
				InputShape:       inputShape,
				MaxBatch:         *maxBatch,
				BatchTimeout:     *batchTimeout,
				QueueCap:         *queueCap,
				MaxInFlight:      *maxInFlight,
				WeightGeneration: cursor,
			},
			MaxQueued:   flt.TenantQueue,
			MaxInFlight: flt.TenantInFlight,
		})
	}

	reg, opLog := obsFlags.Sinks()
	if reg == nil {
		reg = metrics.NewRegistry() // /metrics always works
	}
	for i := range tenants {
		tenants[i].Server.OpLog = opLog
	}
	fl, err := fleet.New(fleet.Config{
		Replicas: flt.Replicas,
		Policy:   policy,
		Metrics:  reg,
		Health:   fleet.HealthConfig{MaxErrorRate: *healthRate, CoolDown: *healthCooldown},
	}, tenants...)
	if err != nil {
		fatal(err)
	}
	defaultTenant := specs[0].Name
	fmt.Printf("serving %d tenant(s) x %d replica(s) of %s on %d stage(s) (%s), route %s, max batch %d, batch timeout %v, input shape %v\n",
		len(tenants), max(flt.Replicas, 1), mdl.Task, len(plan.Stages), cliconf.Cuts(plan, tenants[0].Server.Model), policy, *maxBatch, *batchTimeout, inputShape)

	if *follow {
		for _, spec := range specs {
			if spec.Dir == "" {
				continue
			}
			spec := spec
			ten, err := fl.Tenant(spec.Name)
			if err != nil {
				fatal(err)
			}
			err = ten.Follow(serve.FollowConfig{
				Dir:     spec.Dir,
				Factory: task.Factory,
				Poll:    *pollInterval,
				OnSwap: func(gen int) {
					fmt.Printf("tenant %s: hot-swapped to weight generation %d\n", spec.Name, gen)
				},
				OnError: func(err error) {
					fmt.Fprintf(os.Stderr, "pipedream-serve: tenant %s: follow: %v\n", spec.Name, err)
				},
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("tenant %s: following %s every %v\n", spec.Name, spec.Dir, *pollInterval)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		name := q.Get("model")
		if name == "" {
			name = defaultTenant
		}
		ten, err := fl.Tenant(name)
		if err != nil {
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		// ?head= targets one output head of a DAG plan; requests skip
		// every stage that head does not depend on. Default: the plan's
		// last stage.
		infer := ten.Infer
		if hs := q.Get("head"); hs != "" {
			head, err := strconv.Atoi(hs)
			if err != nil {
				http.Error(w, fmt.Sprintf("head %q is not a stage number", hs), http.StatusBadRequest)
				return
			}
			infer = func(x *tensor.Tensor) (*tensor.Tensor, error) { return ten.InferHead(x, head) }
		}
		handleInfer(infer, inputShape, w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(healthReport(fl, defaultTenant))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	hs := &http.Server{Addr: *addr, Handler: mux}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// Graceful shutdown: Shutdown stops accepting but lets in-flight
	// /infer requests complete (bounded by the timeout); only after it
	// returns is the fleet torn down.
	idle := make(chan struct{})
	go func() {
		<-stop
		fmt.Println("\nshutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "pipedream-serve: shutdown:", err)
			hs.Close()
		}
		close(idle)
	}()
	fmt.Printf("listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-idle
	// Snapshot before Close: the fleet stops counting once torn down.
	final := fl.Stats()
	// Fleet.Close stops each tenant's follower before its servers.
	fl.Close()
	if err := obsFlags.WriteOutputs(reg, opLog); err != nil {
		fatal(err)
	}
	for _, ts := range final.Tenants {
		agg := aggregateServe(ts)
		fmt.Printf("tenant %s: served %d requests (%d rows) in %d batches across %d replica(s), %d shed, %d errors, p50 %.0fus p99 %.0fus\n",
			ts.Name, agg.Responses, agg.Rows, agg.Batches, len(ts.Replicas), agg.Shed, agg.Errors, agg.P50Micros, agg.P99Micros)
		if agg.Swaps > 0 {
			fmt.Printf("tenant %s: hot-swapped %d generation(s), finished at weight generation %d\n",
				ts.Name, agg.Swaps, agg.WeightGeneration)
		}
	}
}

// healthz is the GET /healthz body: the default tenant's replica-
// aggregated serve.Stats at the top level — the shape the endpoint has
// always had, so load generators keep decoding WeightGeneration — plus
// the full per-tenant fleet breakdown.
type healthz struct {
	serve.Stats
	Fleet fleet.Stats
}

func healthReport(fl *fleet.Fleet, defaultTenant string) healthz {
	fs := fl.Stats()
	var h healthz
	h.Fleet = fs
	for _, ts := range fs.Tenants {
		if ts.Name == defaultTenant {
			h.Stats = aggregateServe(ts)
		}
	}
	return h
}

// aggregateServe folds one tenant's per-replica serving stats into a
// single serve.Stats: counters sum, latency quantiles take the worst
// replica, and WeightGeneration and Swaps are the tenant's own — a swap
// installs one generation on every replica, so it counts once.
func aggregateServe(ts fleet.TenantStats) serve.Stats {
	var agg serve.Stats
	var rowsTotal float64
	for _, rs := range ts.Replicas {
		st := rs.Serve
		agg.Requests += st.Requests
		agg.Rows += st.Rows
		agg.Responses += st.Responses
		agg.Shed += st.Shed
		agg.Errors += st.Errors
		agg.Batches += st.Batches
		rowsTotal += float64(st.Rows)
		agg.P50Micros = math.Max(agg.P50Micros, st.P50Micros)
		agg.P95Micros = math.Max(agg.P95Micros, st.P95Micros)
		agg.P99Micros = math.Max(agg.P99Micros, st.P99Micros)
		agg.BatchWaitP50Micros = math.Max(agg.BatchWaitP50Micros, st.BatchWaitP50Micros)
	}
	if agg.Batches > 0 {
		agg.MeanBatchRows = rowsTotal / float64(agg.Batches)
	}
	agg.WeightGeneration = int64(ts.WeightGeneration)
	agg.Swaps = ts.Swaps
	// Tenant-level sheds happen at the quota, before any replica counts
	// the request; fold them in so the top-level number is the client-
	// visible one.
	agg.Shed += ts.Shed
	agg.Errors += ts.Errors
	return agg
}

// inferBufs recycles the buffer an /infer request lives in: first its
// body, then, once the body is decoded, its response.
var inferBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleInfer reads one /infer body, decodes it into a pooled batch
// tensor, runs it through infer (a tenant- or server-bound closure), and
// writes the encoded response; internal/serve's wire codec owns the
// format. Every malformed body maps to a 4xx; infer errors map through
// statusFor. The handler owns the buffer and the tensor and releases
// both at the end (docs/SERVING.md, "/infer wire format").
func handleInfer(infer func(*tensor.Tensor) (*tensor.Tensor, error), inputShape []int, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := inferBufs.Get().(*bytes.Buffer)
	defer inferBufs.Put(buf)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxInferBody {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants that much spare to see EOF
	}
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxInferBody))
	x, err := serve.DecodeInferRequest(buf.Bytes(), readErr, inputShape, maxInferRows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	y, err := infer(x)
	if err != nil {
		// x goes to the GC, not the pool: when a request split over
		// several batches fails on one, dispatch may still read x for the next.
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	// Every batch of x has been sent (a send copies), and the body has been
	// parsed: both are free to reuse.
	tensor.Put(x)
	buf.Reset()
	out, err := serve.AppendInferResponse(buf.AvailableBuffer(), y)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	buf.Write(out) // in place, unless out outgrew buf: then buf, and the pool, keep the larger array
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// statusFor maps the fleet's and server's typed errors onto HTTP
// statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, fleet.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, fleet.ErrNoReplicas):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrTransport):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipedream-serve:", err)
	os.Exit(1)
}
