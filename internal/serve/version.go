package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"pipedream/internal/nn"
)

// Weight hot-swap: the serving analogue of PipeDream's vertical sync.
//
// Training's guarantee is that one minibatch sees exactly one weight
// version across every stage of its forward and backward pass. Serving
// under live retraining needs the same guarantee for requests: when the
// checkpoint follower (or a direct SwapModel call) installs generation
// N+1, batches already inside the pipeline must finish on generation N —
// a request must never run stage 0 on old weights and stage 1 on new
// ones.
//
// The protocol is version stamping plus refcounted retirement:
//
//  1. Every weight generation is an immutable weightVersion: the full
//     model sliced into this server's stages, tagged with the checkpoint
//     cursor it came from.
//  2. The batcher stamps each pipeline batch with the current version's
//     generation at dispatch (transport.Message.Version — the same field
//     vertical sync uses for weight-version tags in training) and
//     increments that version's in-flight count.
//  3. Stage workers run the stamped generation's slice, not "the latest"
//     — so a batch dispatched under generation N keeps meeting
//     generation-N weights at every stage, even while N+1 is already
//     serving newer batches.
//  4. The demultiplexer decrements the in-flight count when the batch's
//     prediction arrives (or the batch fails); a superseded version
//     whose count reaches zero is retired from the table and becomes
//     garbage.
//
// A swap is therefore a single atomic pointer flip between batches:
// in-flight requests drain on the old weights, new requests board the
// new ones, and no request ever observes a mix.

// weightVersion is one loaded weight generation: the model sliced into
// this server's stages, the checkpoint cursor that produced it, and the
// number of pipeline batches currently running on it.
type weightVersion struct {
	gen      int
	stages   []*nn.Sequential
	inflight atomic.Int64
}

// versionTable is the immutable snapshot the hot paths read with one
// atomic load: the current version (new batches board here) plus every
// superseded version still draining in-flight batches.
type versionTable struct {
	cur   *weightVersion
	byGen map[int]*weightVersion
}

// newVersionTable builds the initial single-version table.
func newVersionTable(v *weightVersion) *versionTable {
	return &versionTable{cur: v, byGen: map[int]*weightVersion{v.gen: v}}
}

// WeightGeneration returns the checkpoint generation (training minibatch
// cursor) of the weights new requests are currently served with.
func (s *Server) WeightGeneration() int {
	return s.versions.Load().cur.gen
}

// SwapModel atomically switches new batches to the given model's
// weights, tagged with generation gen (the checkpoint cursor they came
// from). The model is sliced by the server's plan exactly as NewServer
// sliced the original; gen must advance past the current generation —
// stale or duplicate generations are rejected so a slow concurrent
// loader can never roll weights backward. In-flight batches finish on
// the version they were stamped with; the superseded version is retired
// once its last batch drains. The caller must not mutate the model's
// parameters after handing it over.
func (s *Server) SwapModel(model *nn.Sequential, gen int) error {
	start := time.Now()
	stages, err := s.cfg.Plan.StageSlices(model)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.versions.Load()
	if gen <= old.cur.gen {
		return fmt.Errorf("serve: swap to generation %d, already serving %d: %w",
			gen, old.cur.gen, ErrStaleGeneration)
	}
	nv := &weightVersion{gen: gen, stages: stages}
	nt := &versionTable{cur: nv, byGen: map[int]*weightVersion{nv.gen: nv}}
	// Carry over every version still draining batches. Superseded
	// versions that are already idle are dropped here: they can never be
	// boarded again (acquireVersion only boards cur, under this mutex),
	// so zero in-flight means zero future references.
	for g, v := range old.byGen {
		if v.inflight.Load() > 0 {
			nt.byGen[g] = v
		}
	}
	s.versions.Store(nt)
	s.met.weightGen.Set(int64(gen))
	s.met.swaps.Inc()
	s.met.swapLatency.Observe(float64(time.Since(start).Microseconds()))
	return nil
}

// acquireVersion boards n pipeline batches onto the current weight
// version and returns it. The increment happens under the swap mutex so
// retirement (which only removes versions with zero in-flight batches,
// under the same mutex) can never race a boarding batch.
func (s *Server) acquireVersion(n int) *weightVersion {
	s.swapMu.Lock()
	v := s.versions.Load().cur
	v.inflight.Add(int64(n))
	s.swapMu.Unlock()
	return v
}

// releaseVersion records that one pipeline batch stamped with v has left
// the pipeline (delivered or failed). When the last batch of a
// superseded version drains, the version is retired from the table; the
// current version is never retired, and the steady-state release (count
// above zero, or current version) takes no lock.
func (s *Server) releaseVersion(v *weightVersion) {
	if v == nil {
		return
	}
	if v.inflight.Add(-1) > 0 {
		return
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	vt := s.versions.Load()
	if v == vt.cur || v.inflight.Load() != 0 {
		return
	}
	if vt.byGen[v.gen] != v {
		return // already retired by an earlier release or swap
	}
	nt := &versionTable{cur: vt.cur, byGen: make(map[int]*weightVersion, len(vt.byGen)-1)}
	for g, w := range vt.byGen {
		if w != v {
			nt.byGen[g] = w
		}
	}
	s.versions.Store(nt)
}

// stagesFor returns the stage slices of the generation a batch was
// stamped with, or nil when the generation is unknown — which cannot
// happen for a batch the server dispatched (the stamp holds an in-flight
// reference until the demultiplexer releases it) and therefore marks a
// foreign or corrupt message the worker must fail rather than serve with
// arbitrary weights.
func (s *Server) stagesFor(gen int) []*nn.Sequential {
	v := s.versions.Load().byGen[gen]
	if v == nil {
		return nil
	}
	return v.stages
}

// liveVersions reports how many weight versions the table currently
// holds (the current one plus any still draining) — an invariant hook
// for tests and the /healthz swap diagnostics.
func (s *Server) liveVersions() int {
	return len(s.versions.Load().byGen)
}
