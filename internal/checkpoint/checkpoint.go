// Package checkpoint is the shared on-disk checkpoint format of the
// PipeDream reproduction: generation directories of per-stage parameter
// shards plus a validating manifest. The training runtime
// (internal/pipeline) writes and restores them; the serving runtime
// (internal/serve) follows them live, so the layout and its validation
// rules live here, in one place both can import.
//
// Layout under a checkpoint directory:
//
//	gen-00000120/
//	    stage00_replica00.ckpt   gob-encoded StageShard
//	    stage01_replica00.ckpt
//	    MANIFEST.json            written LAST (completeness marker)
//
// Every file is written to a temp name and renamed into place (atomic on
// POSIX), and the manifest is written after every shard, so a reader
// never observes a torn file and a generation whose manifest exists was
// fully written — unless it is being pruned, which deletes files in
// unspecified order. A reader therefore must treat a missing shard as
// "this generation is gone" and fall back to an older one, never as
// corruption. Newest is the one walker that does so: Latest, LoadModel,
// LoadFullState and the training runtime's restore all pick their
// generation through it.
package checkpoint

import (
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// StageShard is the serialized state of one stage replica — one worker's
// slice of the model. The gob field set is the on-disk format; changing
// it breaks existing checkpoints.
type StageShard struct {
	// Generation is the minibatch cursor of the generation this file
	// belongs to; readers reject files whose Generation disagrees with
	// their directory (a torn or hand-mixed checkpoint).
	Generation int
	// Stage and Replica locate the shard in the plan that wrote it.
	Stage   int
	Replica int
	// Updates is the worker's local optimizer-update count.
	Updates int
	// Params holds the stage's parameter tensors in layer order.
	Params []*tensor.Tensor
	// OptState carries the optimizer's per-parameter state (momentum,
	// Adam moments) when the optimizer implements nn.Stateful, so resumed
	// training continues exactly.
	OptState [][]*tensor.Tensor
}

// Manifest validates a generation: its content is derived only from the
// plan and the cursor, so every process of a multi-process deployment
// writes byte-identical manifests (coordination-free, §4). A reader
// requires the manifest AND all stage files it implies; a generation
// missing files is skipped (some stage hadn't finished writing, or a
// prune is underway), while a present-but-inconsistent file fails
// loudly.
type Manifest struct {
	// Generation repeats the cursor encoded in the directory name.
	Generation int
	// Cursor is the global minibatch count the generation's weights
	// reflect — training resumes from here, and serving reports it as the
	// weight generation.
	Cursor int
	// Stages and Replicas describe the plan shape the checkpoint was
	// written for (Replicas[s] = replica count of stage s).
	Stages   int
	Replicas []int
	// Edges lists the plan's stage-graph edges as [from, to] pairs when
	// the plan is a DAG rather than a chain; empty means linear. A reader
	// restoring into a different plan can then verify the dataflow shape,
	// not just the stage count.
	Edges [][2]int `json:",omitempty"`
	// Joins names the fan-in op per stage ("", "sum", or "concat"),
	// parallel to the stage list; present only alongside Edges.
	Joins []string `json:",omitempty"`
}

// ManifestName is the file name of a generation's validating manifest.
const ManifestName = "MANIFEST.json"

// DirName returns the directory name of one generation ("gen-00000120").
func DirName(cursor int) string { return fmt.Sprintf("gen-%08d", cursor) }

// StageFileName returns the shard file name for one stage replica.
func StageFileName(stage, replica int) string {
	return fmt.Sprintf("stage%02d_replica%02d.ckpt", stage, replica)
}

// AtomicWrite writes via a temp file and renames it into place so
// readers never observe a torn file.
func AtomicWrite(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// WriteShard atomically writes one stage shard.
func WriteShard(path string, shard *StageShard) error {
	return AtomicWrite(path, func(f *os.File) error {
		return gob.NewEncoder(f).Encode(shard)
	})
}

// WriteManifest atomically writes a generation's manifest into gdir.
// Call it only after every shard the manifest implies is in place — the
// manifest's existence is what marks the generation complete.
func WriteManifest(gdir string, man *Manifest) error {
	return AtomicWrite(filepath.Join(gdir, ManifestName), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
}

// ReadShard reads the shard of one stage replica from the generation
// directory gdir whose manifest is man, and checks that it belongs there:
// its generation tag (a file copied in from another generation is a mixed
// checkpoint), its stage and replica, and an optimizer state, when it
// carries one, for each of its parameters. A shard file that is missing
// fails with an error wrapping fs.ErrNotExist — under Newest, the sign
// that a prune is sweeping the generation away.
func ReadShard(gdir string, man *Manifest, stage, replica int) (*StageShard, error) {
	path := filepath.Join(gdir, StageFileName(stage, replica))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	var shard StageShard
	err = gob.NewDecoder(f).Decode(&shard)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	case shard.Generation != man.Generation:
		return nil, fmt.Errorf("checkpoint: read %s: file generation %d in generation-%d directory (mixed checkpoint)",
			path, shard.Generation, man.Generation)
	case shard.Stage != stage || shard.Replica != replica:
		return nil, fmt.Errorf("checkpoint: read %s: file is for stage %d replica %d", path, shard.Stage, shard.Replica)
	case shard.OptState != nil && len(shard.OptState) != len(shard.Params):
		return nil, fmt.Errorf("checkpoint: read %s: optimizer state for %d params, shard has %d",
			path, len(shard.OptState), len(shard.Params))
	}
	return &shard, nil
}

// CopyParams copies checkpointed parameters src into a model's dst after
// checking that they match it in count and in every tensor's size; from
// names the checkpoint in the error.
func CopyParams(from string, dst, src []*tensor.Tensor) error {
	if len(dst) != len(src) {
		return fmt.Errorf("checkpoint: load %s: %d params in checkpoint, model has %d", from, len(src), len(dst))
	}
	for i, pt := range dst {
		if pt.Size() != src[i].Size() {
			return fmt.Errorf("checkpoint: load %s: param %d has %d values, model has %d",
				from, i, src[i].Size(), pt.Size())
		}
		pt.CopyFrom(src[i])
	}
	return nil
}

// ListGenerations returns the generation cursors found under dir in
// ascending order.
func ListGenerations(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range entries {
		var g int
		if e.IsDir() {
			if _, err := fmt.Sscanf(e.Name(), "gen-%d", &g); err == nil {
				gens = append(gens, g)
			}
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// ReadManifest reads and validates the manifest of one generation
// directory.
func ReadManifest(gdir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(gdir, ManifestName))
	if err != nil {
		return nil, err
	}
	return ParseManifest(data)
}

// MaxManifestStages bounds the plan shape a manifest may describe; a
// larger value is corruption, not a real deployment, and rejecting it
// here keeps completeness scans over the implied stage files bounded.
const MaxManifestStages = 4096

// ParseManifest decodes and sanity-checks a checkpoint manifest. It is
// pure (no filesystem access) so it can be fuzzed directly; every
// malformed input must produce an error, never a panic or an implausible
// manifest.
func ParseManifest(data []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if man.Generation < 0 || man.Cursor < 0 {
		return nil, fmt.Errorf("manifest: negative generation %d / cursor %d", man.Generation, man.Cursor)
	}
	if man.Stages < 0 || man.Stages > MaxManifestStages {
		return nil, fmt.Errorf("manifest: implausible stage count %d", man.Stages)
	}
	if len(man.Replicas) > MaxManifestStages {
		return nil, fmt.Errorf("manifest: %d replica entries for %d stages", len(man.Replicas), man.Stages)
	}
	for s, r := range man.Replicas {
		if r < 0 || r > MaxManifestStages {
			return nil, fmt.Errorf("manifest: implausible replica count %d for stage %d", r, s)
		}
	}
	if len(man.Edges) > MaxManifestStages*MaxManifestStages {
		return nil, fmt.Errorf("manifest: implausible edge count %d", len(man.Edges))
	}
	for i, e := range man.Edges {
		if e[0] < 0 || e[1] <= e[0] || e[1] >= man.Stages {
			return nil, fmt.Errorf("manifest: edge %d (%d→%d) outside %d topologically ordered stages",
				i, e[0], e[1], man.Stages)
		}
	}
	if len(man.Joins) > man.Stages {
		return nil, fmt.Errorf("manifest: %d join entries for %d stages", len(man.Joins), man.Stages)
	}
	for s, j := range man.Joins {
		switch j {
		case "", "sum", "concat":
		default:
			return nil, fmt.Errorf("manifest: unknown join op %q for stage %d", j, s)
		}
	}
	return &man, nil
}

// Complete reports whether every stage file the manifest implies exists
// in gdir. A complete generation can still lose shards immediately after
// this check (a concurrent prune); readers must treat a missing shard at
// read time the same as an incomplete generation here.
func Complete(gdir string, man *Manifest) bool {
	for s := 0; s < man.Stages; s++ {
		reps := 1
		if s < len(man.Replicas) {
			reps = man.Replicas[s]
		}
		for r := 0; r < reps; r++ {
			if _, err := os.Stat(filepath.Join(gdir, StageFileName(s, r))); err != nil {
				return false
			}
		}
	}
	return true
}

// ErrNoGeneration reports that a checkpoint directory exists (and was
// listed) but holds no complete generation yet — the steady state
// between a trainer starting and its first checkpoint landing. Callers
// that poll (the serving follower, the elastic controller) match it
// with errors.Is to keep waiting quietly, while real faults — an
// unreadable directory, a corrupt manifest — surface loudly.
var ErrNoGeneration = errors.New("no complete generation")

// maxListings bounds how often Newest lists a directory in one call.
// Running out needs a writer that prunes every listed generation before
// the reader opens one, again and again.
const maxListings = 4

// Newest is the one reader of a checkpoint directory: it picks the
// generation every stage restarts from (§4) — the newest complete one —
// and hands it to load. It walks the generations under dir newest first
// and skips one that has no manifest yet or misses a stage file, whether
// the completeness check finds the gap or load does (load's error wraps
// fs.ErrNotExist: a concurrent prune removed the shard after the check).
// An unreadable or corrupt manifest, a manifest naming another generation
// than its directory, and any other error of load fail the walk loudly.
// When every listed generation was skipped, a concurrent writer may have
// pruned them all while writing newer ones, so the directory is listed
// again, up to maxListings times.
//
// A nil load only checks completeness. Newest returns the manifest of
// the generation load accepted; an error wrapping ErrNoGeneration (and
// fs.ErrNotExist when dir does not exist yet) when none was.
func Newest(dir string, load func(gdir string, man *Manifest) error) (*Manifest, error) {
	skipped := "no generation listed"
	for range maxListings {
		gens, err := ListGenerations(dir)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: dir %s: %w (%w)", dir, ErrNoGeneration, err)
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: dir %s: %w", dir, err)
		}
		if len(gens) == 0 {
			break
		}
		for i := len(gens) - 1; i >= 0; i-- {
			gdir := filepath.Join(dir, DirName(gens[i]))
			man, err := ReadManifest(gdir)
			if errors.Is(err, fs.ErrNotExist) {
				skipped = fmt.Sprintf("generation %d has no manifest", gens[i])
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %s: %w", gdir, err)
			}
			if man.Generation != gens[i] {
				return nil, fmt.Errorf("checkpoint: %s: manifest generation %d does not match directory",
					gdir, man.Generation)
			}
			if !Complete(gdir, man) {
				skipped = fmt.Sprintf("generation %d is incomplete", gens[i])
				continue
			}
			if load != nil {
				err := load(gdir, man)
				if errors.Is(err, fs.ErrNotExist) {
					skipped = fmt.Sprintf("generation %d vanished mid-read: %v", gens[i], err)
					continue
				}
				if err != nil {
					return nil, err
				}
			}
			return man, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: dir %s: %w (%s)", dir, ErrNoGeneration, skipped)
}

// Latest returns the cursor of the newest complete checkpoint generation
// under dir (see Newest) — the minibatch count training would resume
// from, and the weight generation serving would flip to.
func Latest(dir string) (int, error) {
	man, err := Newest(dir, nil)
	if err != nil {
		return 0, err
	}
	return man.Cursor, nil
}

// Prune keeps the newest `keep` generation directories under dir and
// deletes older ones (each a complete checkpoint, so only the recent
// history is worth disk). Deletion removes shard files before the
// directory itself disappears, which is why readers re-validate shard
// presence at read time.
func Prune(dir string, keep int) {
	gens, err := ListGenerations(dir)
	if err != nil || len(gens) <= keep {
		return
	}
	for _, g := range gens[:len(gens)-keep] {
		os.RemoveAll(filepath.Join(dir, DirName(g)))
	}
}

// LoadModel assembles a full trained model from the newest complete
// checkpoint generation under dir, for forward-only use (serving,
// evaluation, export). It reads replica 0 of every stage the generation's
// manifest names, concatenates their parameters in stage order — which,
// because stages partition the layer list, is exactly the full model's
// parameter list — and copies them into a fresh model built by factory.
// The returned cursor is the global minibatch count the weights reflect.
//
// LoadModel needs no plan: the consumer may re-partition the model into
// a different number of stages than training used (or run it
// unpartitioned). Newest picks the generation: incomplete ones, and ones
// that lose a shard between the completeness check and the read (the
// mid-prune window), are skipped in favour of older ones; a corrupt
// manifest or a corrupt or cross-generation-mixed file fails loudly.
func LoadModel(dir string, factory func() *nn.Sequential) (*nn.Sequential, int, error) {
	st, err := LoadFullState(dir, factory)
	if err != nil {
		return nil, 0, err
	}
	return st.Model, st.Cursor, nil
}

// FullState is the plan-independent training state reassembled from one
// complete checkpoint generation: the full model, the optimizer's
// per-parameter state concatenated in the same order, and the minibatch
// cursor the weights reflect. It is what the elastic rescale controller
// re-slices onto a new plan after a membership change.
type FullState struct {
	// Model holds the reassembled full model.
	Model *nn.Sequential
	// OptState[i] is the optimizer's state for Model.Params()[i]
	// (momentum / Adam moments). Nil when any shard of the generation
	// carried no optimizer state — restarting then resets the optimizer.
	OptState [][]*tensor.Tensor
	// Cursor is the global minibatch count the weights reflect; training
	// resumes from here.
	Cursor int
}

// LoadFullState reassembles the newest complete checkpoint generation
// under dir (see Newest) into a FullState.
func LoadFullState(dir string, factory func() *nn.Sequential) (*FullState, error) {
	var st *FullState
	man, err := Newest(dir, func(gdir string, man *Manifest) (err error) {
		st, err = loadGenerationState(gdir, man, factory)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.Cursor = man.Cursor
	return st, nil
}

// loadGenerationState reads every stage's replica-0 file of one complete,
// validated generation, copies the concatenated parameters into a fresh
// model, and carries the concatenated optimizer state alongside.
func loadGenerationState(gdir string, man *Manifest, factory func() *nn.Sequential) (*FullState, error) {
	var loaded []*tensor.Tensor
	var optState [][]*tensor.Tensor
	haveOpt := true
	for s := 0; s < man.Stages; s++ {
		shard, err := ReadShard(gdir, man, s, 0)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, shard.Params...)
		if len(shard.Params) == 0 {
			// A stage of parameterless layers vacuously has optimizer
			// state; its empty snapshot round-trips through gob as nil and
			// must not mark the whole generation stateless.
			continue
		}
		if shard.OptState == nil {
			haveOpt = false
		}
		optState = append(optState, shard.OptState...)
	}
	model := factory()
	if err := CopyParams(gdir, model.Params(), loaded); err != nil {
		return nil, err
	}
	if !haveOpt {
		optState = nil
	}
	return &FullState{Model: model, OptState: optState}, nil
}
