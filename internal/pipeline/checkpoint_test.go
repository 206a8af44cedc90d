package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pipedream/internal/checkpoint"
	"pipedream/internal/data"
	"pipedream/internal/membership"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
)

// TestLoadModelReassemblesCheckpoint trains a multi-stage pipeline,
// checkpoints it, and checks LoadModel rebuilds the exact trained model
// from the per-stage shards — the loader serving builds on.
func TestLoadModelReassemblesCheckpoint(t *testing.T) {
	factory := mlpFactory(21, 4, 8, 3)
	ds := data.NewBlobs(22, 3, 4, 8, 12)
	dir := t.TempDir()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
		FaultConfig:  FaultConfig{CheckpointDir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 12); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	want := p.CollectModel().Params()

	model, cursor, err := checkpoint.LoadModel(dir, factory)
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 12 {
		t.Fatalf("cursor = %d, want 12", cursor)
	}
	got := model.Params()
	if len(got) != len(want) {
		t.Fatalf("loaded %d params, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].AllClose(want[i], 0) {
			t.Fatalf("param %d differs from trained model", i)
		}
	}
}

// TestLoadModelValidation: an empty directory and a factory whose
// parameter layout does not match the shards both fail with an error
// instead of a silently wrong model.
func TestLoadModelValidation(t *testing.T) {
	if _, _, err := checkpoint.LoadModel(t.TempDir(), mlpFactory(1, 4, 8, 3)); err == nil {
		t.Fatal("LoadModel on an empty directory succeeded")
	}

	factory := mlpFactory(23, 4, 8, 3)
	ds := data.NewBlobs(24, 3, 4, 8, 6)
	dir := t.TempDir()
	p, err := New(Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Train(ds, 6); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.LoadModel(dir, mlpFactory(1, 4, 16, 3)); err == nil {
		t.Fatal("LoadModel with a mismatched factory succeeded")
	}
}

// TestRestoreSkipsMidPruneGeneration mirrors the serve-side follower
// test on the training path: a generation whose manifest survives but
// whose shard a concurrent prune already deleted must be skipped in
// favour of the older complete generation — Restore lands on it, and
// training resumes from its cursor.
func TestRestoreSkipsMidPruneGeneration(t *testing.T) {
	factory := mlpFactory(11, 4, 8, 3)
	ds := data.NewBlobs(13, 3, 4, 8, 30)
	dir := t.TempDir()
	mk := func() *Pipeline {
		plan := evenPlan(t, factory, 2, 1)
		plan.Depth = 1
		p, err := New(Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	w := mk()
	defer w.Close()
	if _, err := w.Train(ds, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Train(ds, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Generation 20 is caught mid-prune: manifest present, one shard gone.
	if err := os.Remove(filepath.Join(dir, checkpoint.DirName(20), checkpoint.StageFileName(1, 0))); err != nil {
		t.Fatal(err)
	}
	r := mk()
	defer r.Close()
	if err := r.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if r.cursor != 10 {
		t.Fatalf("restored cursor = %d, want 10 (gen 20 is mid-prune)", r.cursor)
	}
}

// TestRestoreRacesPruneAtGenerationBoundary stresses the training-side
// restore against a concurrent writer that checkpoints and prunes (the
// elastic controller's barrier loop): every Restore must land on SOME
// complete generation without error, no matter where the prune is. Run
// under -race, this also proves the paths share no unsynchronized state.
func TestRestoreRacesPruneAtGenerationBoundary(t *testing.T) {
	factory := mlpFactory(17, 4, 8, 3)
	dir := t.TempDir()
	mk := func() *Pipeline {
		plan := evenPlan(t, factory, 2, 1)
		plan.Depth = 1
		p, err := New(Options{
			ModelFactory: factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	w := mk()
	defer w.Close()
	// Seed one complete generation so the reader never sees an empty dir.
	if err := w.checkpointAt(dir, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		defer close(done)
		// checkpointAt prunes to 3 generations on every write, so each
		// iteration deletes the oldest generation while the reader races it.
		for gen := 1; gen <= 60; gen++ {
			if err := w.checkpointAt(dir, gen*5); err != nil {
				werr <- err
				return
			}
		}
	}()
	r := mk()
	defer r.Close()
	for {
		select {
		case <-done:
			if err := r.Restore(dir); err != nil {
				t.Fatal(err)
			}
			if r.cursor%5 != 0 {
				t.Fatalf("restored cursor %d is not a written generation", r.cursor)
			}
			select {
			case err := <-werr:
				t.Fatal(err)
			default:
			}
			return
		default:
			if err := r.Restore(dir); err != nil {
				t.Fatalf("restore raced prune: %v", err)
			}
			if r.cursor%5 != 0 {
				t.Fatalf("restored cursor %d is not a written generation", r.cursor)
			}
		}
	}
}

// TestLoadFullStateRacesPruneAtGenerationBoundary is the elastic
// rescale's twin of TestRestoreRacesPruneAtGenerationBoundary: every
// LoadFullState against a writer that checkpoints and prunes must land on
// SOME complete generation without error, however often the prune
// empties the listing the reader walks.
func TestLoadFullStateRacesPruneAtGenerationBoundary(t *testing.T) {
	factory := mlpFactory(19, 4, 8, 3)
	dir := t.TempDir()
	plan := evenPlan(t, factory, 2, 1)
	plan.Depth = 1
	w, err := New(Options{
		ModelFactory: factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0.9, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Seed one complete generation so the reader never sees an empty dir.
	if err := w.checkpointAt(dir, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for gen := 1; gen <= 60; gen++ {
			if err := w.checkpointAt(dir, gen*5); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		var werr error
		finished := false
		select {
		case werr = <-done:
			finished = true
		default:
		}
		if werr != nil {
			t.Fatal(werr)
		}
		st, err := checkpoint.LoadFullState(dir, factory)
		if err != nil {
			t.Fatalf("LoadFullState raced prune: %v", err)
		}
		if st.Cursor%5 != 0 {
			t.Fatalf("loaded cursor %d is not a written generation", st.Cursor)
		}
		if finished {
			return
		}
	}
}

// TestCorruptNewestManifestFailsEveryReader: a newest generation whose
// manifest does not parse is corruption, not a generation still being
// written. LatestCheckpoint, LoadModel and Restore all report it instead
// of falling back to the older generation, and Train — plain and elastic
// — returns it rather than seeding a generation over it.
func TestCorruptNewestManifestFailsEveryReader(t *testing.T) {
	factory := mlpFactory(27, 4, 8, 3)
	ds := data.NewBlobs(29, 3, 4, 8, 10)
	dir := t.TempDir()
	opts := Options{
		ModelFactory: factory,
		Plan:         evenPlan(t, factory, 2, 1),
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.1, 0, 0) },
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for range 2 { // generations 5 and 10
		if _, err := p.Train(ds, 5); err != nil {
			t.Fatal(err)
		}
		if err := p.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, checkpoint.DirName(10), checkpoint.ManifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := func(what string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, checkpoint.ErrNoGeneration) || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("%s over a corrupt newest manifest: %v; want the manifest's error", what, err)
		}
	}
	cur, err := checkpoint.Latest(dir)
	corrupt(fmt.Sprintf("checkpoint.Latest (cursor %d)", cur), err)
	_, _, err = checkpoint.LoadModel(dir, factory)
	corrupt("LoadModel", err)
	corrupt("Restore", p.Restore(dir))

	opts.FaultConfig = FaultConfig{CheckpointDir: dir, CheckpointEvery: 5, MaxRecoveries: 1}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Train(ds, 5)
	corrupt("Train", err)

	h := newElasticHarness(membership.Config{HeartbeatTimeout: 100 * time.Millisecond, Debounce: 20 * time.Millisecond})
	for id := range 2 {
		h.startNode(t, id)
	}
	e, err := NewElastic(opts, ElasticConfig{
		View: h.view,
		Replan: func(n int) (*partition.Plan, error) {
			return evenPlan(t, factory, n, 1), nil
		},
		MinWorkers:   2,
		WaitTimeout:  5 * time.Second,
		NewTransport: h.transportFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.Train(ds, 5)
	corrupt("Elastic.Train", err)

	if gens, err := checkpoint.ListGenerations(dir); err != nil || !slices.Equal(gens, []int{5, 10}) {
		t.Fatalf("generations after the failed Trains: %v, %v; want [5 10] untouched", gens, err)
	}
}
