package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pipedream/internal/checkpoint"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
)

// The on-disk format — generation directories of gob-encoded stage
// shards plus a validating manifest — lives in internal/checkpoint, the
// package the serving runtime's checkpoint follower shares. This file
// keeps the pipeline-side workflow: writing a generation from live
// workers at a drain barrier, and restoring workers (weights, optimizer
// state, cursor) from the newest complete one.

// Checkpoint writes each local worker's current parameters to a new
// generation under dir, one file per stage replica plus a validating
// manifest — the paper's coordination-free per-stage checkpointing (§4):
// each process of a multi-process deployment writes only its own stage
// files, and the manifest's content is plan-derived, so every process
// writes it identically. Call between
// Train invocations (the pipeline must be idle). The generation is named
// after the pipeline's minibatch cursor; Restore resumes from it.
func (p *Pipeline) Checkpoint(dir string) error {
	return p.checkpointAt(dir, p.cursor)
}

// checkpointAt writes the generation for the given cursor. Every file is
// written to a temp name and renamed into place (atomic on POSIX); the
// manifest is written last, so a crash mid-write leaves a generation that
// Restore recognizes as incomplete and skips.
func (p *Pipeline) checkpointAt(dir string, cursor int) error {
	gdir := filepath.Join(dir, checkpoint.DirName(cursor))
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return fmt.Errorf("pipeline: checkpoint dir: %w", err)
	}
	for _, sw := range p.workers {
		shard := checkpoint.StageShard{
			Generation: cursor,
			Stage:      sw.stage,
			Replica:    sw.replica,
			Updates:    sw.updates,
			Params:     sw.model.Params(),
		}
		if st, ok := sw.opt.(nn.Stateful); ok {
			shard.OptState = st.StateSnapshot(sw.model.Params())
		}
		path := filepath.Join(gdir, checkpoint.StageFileName(sw.stage, sw.replica))
		if err := checkpoint.WriteShard(path, &shard); err != nil {
			return fmt.Errorf("pipeline: checkpoint %s: %w", path, err)
		}
	}
	if err := checkpoint.WriteManifest(gdir, p.manifest(cursor)); err != nil {
		return fmt.Errorf("pipeline: checkpoint %s: %w", gdir, err)
	}
	if p.opts.Metrics != nil {
		p.opts.Metrics.Counter("pipeline.checkpoint_writes").Inc()
	}
	checkpoint.Prune(dir, 3)
	return nil
}

// seedCheckpoint writes the generation for cursor when the checkpoint
// directory holds none yet, and reports whether it did. Any other error
// of the walk — a corrupt manifest among them — is returned, and nothing
// is written over it.
func (p *Pipeline) seedCheckpoint(cursor int) (bool, error) {
	_, err := checkpoint.Latest(p.opts.CheckpointDir)
	if !errors.Is(err, checkpoint.ErrNoGeneration) {
		return false, err
	}
	return true, p.checkpointAt(p.opts.CheckpointDir, cursor)
}

func (p *Pipeline) manifest(cursor int) *checkpoint.Manifest {
	man := &checkpoint.Manifest{
		Generation: cursor,
		Cursor:     cursor,
		Stages:     len(p.opts.Plan.Stages),
	}
	for _, spec := range p.opts.Plan.Stages {
		man.Replicas = append(man.Replicas, spec.Replicas)
	}
	// A DAG plan records its dataflow shape so a reader restoring into a
	// different plan can verify the graph, not just the stage count. The
	// graph comes from the plan alone, so manifests stay byte-identical
	// across processes.
	if g := p.opts.Plan.Graph; !g.IsLinear() {
		for _, e := range g.Edges {
			man.Edges = append(man.Edges, [2]int{e.From, e.To})
		}
		for s := 0; s < g.Nodes; s++ {
			op := ""
			if j := g.Join(s); j != partition.JoinNone {
				op = j.String()
			}
			man.Joins = append(man.Joins, op)
		}
	}
	return man
}

// Restore loads parameters previously written by Checkpoint from the
// generation checkpoint.Newest picks — the newest complete one, skipping
// generations that are incomplete or that lose a stage file mid-read
// under a concurrent prune — after validating it against this pipeline's
// plan: every local worker's weights, optimizer state, and update counter
// are restored, and the pipeline's minibatch cursor rewinds to the
// generation's. A corrupt manifest or stage file and a plan-mismatched
// generation fail loudly.
func (p *Pipeline) Restore(dir string) error {
	man, err := checkpoint.Newest(dir, func(gdir string, man *checkpoint.Manifest) error {
		if err := p.validateManifest(man); err != nil {
			return fmt.Errorf("pipeline: restore %s: %w", gdir, err)
		}
		for _, sw := range p.workers {
			shard, err := checkpoint.ReadShard(gdir, man, sw.stage, sw.replica)
			if err != nil {
				return err
			}
			params := sw.model.Params()
			if err := checkpoint.CopyParams(gdir, params, shard.Params); err != nil {
				return err
			}
			if st, ok := sw.opt.(nn.Stateful); ok && shard.OptState != nil {
				st.RestoreState(params, shard.OptState)
			}
			sw.updates = shard.Updates
			sw.weights.reset(sw.reflected())
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("pipeline: restore: %w", err)
	}
	p.cursor = man.Cursor
	return nil
}

// validateManifest checks the manifest against this pipeline's plan shape.
func (p *Pipeline) validateManifest(man *checkpoint.Manifest) error {
	if man.Stages != len(p.opts.Plan.Stages) {
		return fmt.Errorf("checkpoint has %d stages, plan has %d", man.Stages, len(p.opts.Plan.Stages))
	}
	for s, spec := range p.opts.Plan.Stages {
		reps := 1
		if s < len(man.Replicas) {
			reps = man.Replicas[s]
		}
		if reps != spec.Replicas {
			return fmt.Errorf("checkpoint stage %d has %d replicas, plan has %d", s, reps, spec.Replicas)
		}
	}
	return nil
}
