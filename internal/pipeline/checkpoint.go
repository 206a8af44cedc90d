package pipeline

import (
	"errors"
	"fmt"
	"io/fs"
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

// LatestCheckpoint returns the cursor of the newest complete checkpoint
// generation under dir — the minibatch count training would resume from.
// A generation is complete when its manifest exists and every stage file
// the manifest implies is present. It returns an error when no complete
// generation exists.
func LatestCheckpoint(dir string) (int, error) {
	cursor, err := checkpoint.Latest(dir)
	if err != nil {
		return 0, fmt.Errorf("pipeline: %w", err)
	}
	return cursor, nil
}

// LoadModel assembles a full trained model from the newest complete
// checkpoint generation under dir, for forward-only use (serving,
// evaluation, export). It reads replica 0 of every stage the generation's
// manifest names, concatenates their parameters in stage order — which,
// because stages partition the layer list, is exactly the full model's
// parameter list — and copies them into a fresh model built by factory.
// The returned cursor is the global minibatch count the weights reflect.
//
// Unlike Restore, LoadModel needs no Pipeline and no plan: the serving
// process may re-partition the model into a different number of stages
// than training used (or run it unpartitioned). Generations that lose a
// shard between the completeness check and the read (a concurrent prune)
// are skipped in favour of older ones.
func LoadModel(dir string, factory func() *nn.Sequential) (*nn.Sequential, int, error) {
	return checkpoint.LoadModel(dir, factory)
}

// Restore loads parameters previously written by Checkpoint: the newest
// complete generation is selected, validated against this pipeline's plan,
// and every local worker's weights, optimizer state, and update counter
// are restored; the pipeline's minibatch cursor rewinds to the
// generation's. Incomplete generations (missing stage files — including
// files that vanish mid-read under a concurrent prune) are skipped in
// favour of older ones; a present-but-corrupt or plan-mismatched
// generation fails loudly. Directories written by the pre-generation flat
// layout are still accepted (without cursor information).
func (p *Pipeline) Restore(dir string) error {
	_, err := p.restoreLatest(dir)
	return err
}

// restoreLatest restores from the newest complete generation and returns
// its cursor. A concurrent writer (another incarnation checkpointing and
// pruning at its barrier loop) can delete every generation a single
// directory listing saw before this reader opens one; in that case the
// listing is re-taken — the writer that emptied it necessarily produced
// newer complete generations. The retry is bounded: exhausting it needs
// the writer to outrun the reader across the whole listing repeatedly.
func (p *Pipeline) restoreLatest(dir string) (int, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		var cursor int
		var retry bool
		cursor, retry, err = p.restoreOnce(dir)
		if err == nil {
			return cursor, nil
		}
		if !retry {
			return 0, err
		}
	}
	return 0, err
}

// restoreOnce restores from the newest complete generation of one
// directory listing. retry reports that every listed generation was
// skipped (incomplete or vanished mid-read) — a fresh listing may see
// the generations a concurrent writer added since.
func (p *Pipeline) restoreOnce(dir string) (cursor int, retry bool, _ error) {
	gens, err := checkpoint.ListGenerations(dir)
	if err != nil {
		return 0, false, fmt.Errorf("pipeline: restore %s: %w", dir, err)
	}
	if len(gens) == 0 {
		// Pre-generation layout: stage files at the directory root, no
		// manifest, no cursor.
		if err := p.restoreGeneration(dir, nil); err != nil {
			return 0, false, err
		}
		return p.cursor, false, nil
	}
	var lastSkip error
	for i := len(gens) - 1; i >= 0; i-- {
		gdir := filepath.Join(dir, checkpoint.DirName(gens[i]))
		man, err := checkpoint.ReadManifest(gdir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				lastSkip = fmt.Errorf("generation %d has no manifest", gens[i])
				continue // crashed before the manifest: incomplete
			}
			return 0, false, fmt.Errorf("pipeline: restore %s: %w", gdir, err)
		}
		if man.Generation != gens[i] {
			return 0, false, fmt.Errorf("pipeline: restore %s: manifest generation %d does not match directory",
				gdir, man.Generation)
		}
		if err := p.validateManifest(man); err != nil {
			return 0, false, fmt.Errorf("pipeline: restore %s: %w", gdir, err)
		}
		if !checkpoint.Complete(gdir, man) {
			lastSkip = fmt.Errorf("generation %d is incomplete", gens[i])
			continue
		}
		if err := p.restoreGeneration(gdir, man); err != nil {
			// A shard present at the completeness check but gone at read
			// time means a prune swept this generation between the two;
			// fall back to an older complete one.
			if errors.Is(err, fs.ErrNotExist) {
				lastSkip = fmt.Errorf("generation %d vanished mid-read: %v", gens[i], err)
				continue
			}
			return 0, false, err
		}
		p.cursor = man.Cursor
		return man.Cursor, false, nil
	}
	return 0, true, fmt.Errorf("pipeline: no complete checkpoint generation in %s (%v)", dir, lastSkip)
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

// restoreGeneration loads this process's workers from the stage files in
// gdir: one complete generation validated against man, or (man nil) the
// pre-generation flat layout.
func (p *Pipeline) restoreGeneration(gdir string, man *checkpoint.Manifest) error {
	for _, sw := range p.workers {
		path := filepath.Join(gdir, checkpoint.StageFileName(sw.stage, sw.replica))
		shard, err := checkpoint.ReadShard(path)
		if err != nil {
			return err
		}
		if man != nil && shard.Generation != man.Generation {
			return fmt.Errorf("pipeline: restore %s: file generation %d in generation-%d directory (mixed checkpoint)",
				path, shard.Generation, man.Generation)
		}
		if err := sw.restoreFrom(path, shard); err != nil {
			return err
		}
	}
	return nil
}

// restoreFrom applies one validated checkpoint shard to this worker.
func (sw *stageWorker) restoreFrom(path string, shard *checkpoint.StageShard) error {
	if shard.Stage != sw.stage || shard.Replica != sw.replica {
		return fmt.Errorf("pipeline: restore %s: checkpoint is for stage %d replica %d", path, shard.Stage, shard.Replica)
	}
	params := sw.model.Params()
	if len(params) != len(shard.Params) {
		return fmt.Errorf("pipeline: restore %s: %d params in checkpoint, model has %d", path, len(shard.Params), len(params))
	}
	for i, pt := range params {
		if pt.Size() != shard.Params[i].Size() {
			return fmt.Errorf("pipeline: restore %s: param %d has %d values, model has %d",
				path, i, shard.Params[i].Size(), pt.Size())
		}
		pt.CopyFrom(shard.Params[i])
	}
	if st, ok := sw.opt.(nn.Stateful); ok && shard.OptState != nil {
		if len(shard.OptState) != len(params) {
			return fmt.Errorf("pipeline: restore %s: optimizer state for %d params, model has %d",
				path, len(shard.OptState), len(params))
		}
		st.RestoreState(params, shard.OptState)
	}
	sw.updates = shard.Updates
	sw.weights.reset(sw.reflected())
	return nil
}
