package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/nn"
)

// The checkpoint follower closes the train→serve loop: it turns a
// running server into a live consumer of a trainer's checkpoint
// directory. The trainer keeps writing generations (gen-N directories,
// manifest last); the follower polls for a newer complete generation,
// loads it in the background with checkpoint.LoadModel, and installs it
// with SwapModel — so requests never stop flowing while the weights
// advance, and every request still runs exactly one generation
// end-to-end.
//
// Polling, not notification, is deliberate: the checkpoint directory is
// the only coupling between trainer and server, which keeps the two
// processes independently restartable and works across any filesystem
// the directory lives on. The atomic manifest-last write protocol makes
// polling race-free — a generation is either invisible or complete, and
// the one mid-prune window (manifest present, shard already deleted) is
// skipped by checkpoint.Newest, the walker Latest and LoadModel pick
// their generation through.

// Target is what a checkpoint follower installs generations into: a
// Server, or a fleet tenant that installs each generation on every one of
// its replicas. SwapModel must refuse a generation that does not advance
// past WeightGeneration with ErrStaleGeneration.
type Target interface {
	WeightGeneration() int
	SwapModel(model *nn.Sequential, gen int) error
}

// FollowConfig configures a checkpoint follower started with Follow.
type FollowConfig struct {
	// Dir is the checkpoint directory the trainer writes generations
	// into. Required.
	Dir string

	// Factory builds an architecture-matched model for the loader to
	// restore weights into — the same factory the trainer and NewServer
	// used. Required.
	Factory func() *nn.Sequential

	// Poll is the directory polling interval. Zero defaults to one
	// second; the per-poll cost when nothing changed is one directory
	// listing, so sub-second intervals are fine on local disks.
	Poll time.Duration

	// OnSwap, when non-nil, is called after each successful swap with
	// the installed generation — a hook for logging and tests. It runs
	// on the follower goroutine, so it must not block.
	OnSwap func(gen int)

	// OnError, when non-nil, is called when a poll fails to list, load,
	// or install a generation (the follower logs on and retries next
	// tick). It runs on the follower goroutine.
	OnError func(err error)
}

// Follower is a running checkpoint follower. Stop it with Close; the
// target's Close does not stop it, since the caller started it.
type Follower struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Close stops the follower and waits for its goroutine to exit. A swap
// already in progress completes first. Safe to call more than once.
func (f *Follower) Close() {
	f.once.Do(func() { close(f.stop) })
	<-f.done
}

// Follow starts a checkpoint follower on the server; see the package
// function Follow.
func (s *Server) Follow(cfg FollowConfig) (*Follower, error) {
	return Follow(s, cfg)
}

// Follow starts a checkpoint follower: a goroutine that polls cfg.Dir
// every cfg.Poll and hot-swaps each new complete generation into t. The
// returned Follower must be Closed before t is; a swap against a closed
// target is harmless but wasted work.
//
// The follower is level-triggered, not edge-triggered: each tick
// compares the directory's latest complete generation against the
// target's current one, so missed ticks or multiple generations written
// between ticks collapse into a single swap to the newest — the target
// may skip generations, but never serves one out of order.
func Follow(t Target, cfg FollowConfig) (*Follower, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: follow: checkpoint dir is required")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("serve: follow: model factory is required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Second
	}
	f := &Follower{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		tick := time.NewTicker(cfg.Poll)
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				pollOnce(t, cfg)
			}
		}
	}()
	return f, nil
}

// pollOnce checks the checkpoint directory for a generation newer than
// the one t currently serves and installs it. Any failure is reported to
// OnError and retried on the next tick — a torn read this tick is a
// complete generation the next.
func pollOnce(t Target, cfg FollowConfig) {
	latest, err := checkpoint.Latest(cfg.Dir)
	if err != nil {
		// An empty or not-yet-created directory (ErrNoGeneration) is the
		// steady state before the trainer's first checkpoint; stay quiet
		// and keep polling. Anything else — the directory turned
		// unreadable, a file sits where the directory should be, the
		// newest manifest is corrupt — is a real fault the operator must
		// hear about; the follower reports it and lives on to retry next
		// tick.
		if !errors.Is(err, checkpoint.ErrNoGeneration) {
			if cfg.OnError != nil {
				cfg.OnError(fmt.Errorf("serve: follow: list: %w", err))
			}
		}
		return
	}
	if latest <= t.WeightGeneration() {
		return
	}
	model, gen, err := checkpoint.LoadModel(cfg.Dir, cfg.Factory)
	if err != nil {
		if cfg.OnError != nil {
			cfg.OnError(fmt.Errorf("serve: follow: load: %w", err))
		}
		return
	}
	if err := t.SwapModel(model, gen); err != nil {
		// ErrStaleGeneration means another swapper beat us to a newer
		// generation — already up to date, not a failure worth reporting.
		if cfg.OnError != nil && !errors.Is(err, ErrStaleGeneration) {
			cfg.OnError(fmt.Errorf("serve: follow: swap: %w", err))
		}
		return
	}
	if cfg.OnSwap != nil {
		cfg.OnSwap(gen)
	}
}
