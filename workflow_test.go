package pipedream

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pipedream/internal/cliconf"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/profile"
	"pipedream/internal/topology"
)

// TestProfileOptimizeRunWorkflow runs the paper's workflow (§3.1, Fig. 6)
// through the binaries for every task: the profile pipedream-profile
// writes has exactly the layers of the model the runtime trains, and the
// plan pipedream-optimizer writes from it reads back and trains.
func TestProfileOptimizeRunWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"pipedream-profile", "pipedream-optimizer"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	run := func(name string, args ...string) {
		t.Helper()
		if out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput(); err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
	}
	for _, name := range []string{"spiral", "images", "sequence"} {
		profPath := filepath.Join(dir, name+"-prof.json")
		planPath := filepath.Join(dir, name+"-plan.json")
		run("pipedream-profile", "-task", name, "-batches", "2", "-o", profPath)
		run("pipedream-optimizer", "-profile", profPath, "-cluster", "c", "-servers", "3", "-o", planPath)

		task, err := (&cliconf.Model{Task: name, Seed: 42}).Build()
		if err != nil {
			t.Fatal(err)
		}
		layers := task.Factory().Layers
		f, err := os.Open(profPath)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if prof.NumLayers() != len(layers) {
			t.Fatalf("%s: profile has %d layers, the runtime's model %d", name, prof.NumLayers(), len(layers))
		}
		for i, l := range layers {
			if got := prof.Layers[i].Name; got != l.Name() {
				t.Fatalf("%s: profile layer %d is %q, the runtime's model has %q", name, i, got, l.Name())
			}
		}

		f, err = os.Open(planPath)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := partition.ReadJSON(f, prof, topology.ClusterC(3))
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := pipeline.New(pipeline.Options{
			ModelFactory: task.Factory,
			Plan:         plan,
			Loss:         nn.SoftmaxCrossEntropy,
			NewOptimizer: task.NewOptimizer,
		})
		if err != nil {
			t.Fatalf("%s: plan %s: %v", name, plan, err)
		}
		_, err = p.Train(task.Train, 2*plan.Workers)
		p.Close()
		if err != nil {
			t.Fatalf("%s: plan %s: %v", name, plan, err)
		}
	}
}
