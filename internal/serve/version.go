package serve

import (
	"fmt"
	"time"

	"pipedream/internal/nn"
)

// Weight hot-swap: the serving analogue of PipeDream's weight stashing.
//
// Training keeps a weight version with the minibatch whose forward ran
// under it (§3.3); serving under live retraining needs the same guarantee
// for requests. When the checkpoint follower (or a direct SwapModel call)
// installs generation N+1, batches already inside the pipeline must
// finish on generation N — a request must never run stage 0 on old
// weights and stage 1 on new ones.
//
// So every batch carries its version, as a stashed minibatch does:
//
//  1. Every weight generation is an immutable weightVersion: the full
//     model sliced into this server's stages, tagged with the checkpoint
//     cursor it came from. The one new batches board is s.current.
//  2. At dispatch the batcher loads s.current, stamps the batch with its
//     generation (transport.Message.Version — the field vertical sync
//     tags minibatches with in training) and keeps the version in the
//     batch's pending entry (batchInfo.ver).
//  3. A stage worker runs the version of the last batch it ran while
//     the stamps match; on a new stamp it reads the batch's pending entry
//     (versionOf). A batch dispatched under generation N therefore meets
//     generation-N weights at every stage, even while N+1 already serves
//     newer batches.
//  4. After a batch, a stage worker lets go of a version that is no
//     longer current. A superseded version then lives only as long as a
//     pending batch refers to it (or a stage worker that has not run a
//     batch since the swap), and the collector frees it.
//
// A swap is therefore one pointer store between batches: in-flight
// requests drain on the old weights, new requests board the new ones,
// and no request ever observes a mix. Nothing counts references.

// weightVersion is one loaded weight generation: the model sliced into
// this server's stages and the checkpoint cursor that produced it.
type weightVersion struct {
	gen    int
	stages []*nn.Sequential
}

// WeightGeneration returns the checkpoint generation (training minibatch
// cursor) of the weights new requests are currently served with.
func (s *Server) WeightGeneration() int {
	return s.current.Load().gen
}

// SwapModel atomically switches new batches to the given model's
// weights, tagged with generation gen (the checkpoint cursor they came
// from). The model is sliced by the server's plan exactly as NewServer
// sliced the original; gen must advance past the current generation —
// stale or duplicate generations are rejected so a slow concurrent
// loader can never roll weights backward. In-flight batches finish on
// the version they were stamped with. The caller must not mutate the
// model's parameters after handing it over.
func (s *Server) SwapModel(model *nn.Sequential, gen int) error {
	start := time.Now()
	stages, err := s.cfg.Plan.StageSlices(model)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if cur := s.current.Load().gen; gen <= cur {
		return fmt.Errorf("serve: swap to generation %d, already serving %d: %w",
			gen, cur, ErrStaleGeneration)
	}
	s.current.Store(&weightVersion{gen: gen, stages: stages})
	s.met.weightGen.Set(int64(gen))
	s.met.swaps.Inc()
	s.met.swapLatency.Observe(float64(time.Since(start).Microseconds()))
	return nil
}

// versionOf returns the version batch id was dispatched under, or nil
// when the batch is no longer pending (reclaimed) or was stamped with
// another generation — a foreign or corrupt message the worker must fail
// rather than serve with arbitrary weights.
func (s *Server) versionOf(id, gen int) *weightVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if info := s.pending[id]; info != nil && info.ver.gen == gen {
		return info.ver
	}
	return nil
}

// liveVersions reports how many weight versions the server refers to:
// the current one plus any other a pending batch was stamped with — an
// invariant hook for tests.
func (s *Server) liveVersions() int {
	cur := s.current.Load()
	seen := map[*weightVersion]bool{cur: true}
	s.mu.Lock()
	for _, info := range s.pending {
		seen[info.ver] = true
	}
	s.mu.Unlock()
	return len(seen)
}
