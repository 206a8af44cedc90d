package pipedream

import (
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pipedream/internal/checkpoint"
	"pipedream/internal/cliconf"
	"pipedream/internal/nn"
	"pipedream/internal/pipeline"
)

// freeAddrs reserves n distinct loopback ports and returns their
// addresses. The listeners are closed before use, so a tiny reuse race
// exists, but nothing else runs on this host during tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestDistributedMultiProcessTraining launches one OS process per pipeline
// stage (the paper's deployment model), all reading one plan file, and
// verifies they train together over TCP exactly as one process running
// the same file does over channels — the same printed epoch losses and,
// from the checkpoint each stage writes, bit-identical final weights: the
// static schedule makes both a pure function of (seed, plan, depth).
// Every process must exit cleanly.
func TestDistributedMultiProcessTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "pipedream-train")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pipedream-train")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build worker: %v\n%s", err, out)
	}

	const stages = 3
	addrs := freeAddrs(t, stages)
	peers := strings.Join(addrs, ",")
	ckptDir := t.TempDir()

	// One plan file, cut on this process's profile, for every worker and
	// for the one-process reference.
	mdl := &cliconf.Model{Task: "spiral", Seed: 42, Stages: stages, Replicas: 1}
	task, err := mdl.Build()
	if err != nil {
		t.Fatal(err)
	}
	cut, err := mdl.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	mdl.PlanFile = filepath.Join(t.TempDir(), "plan.json")
	f, err := os.Create(mdl.PlanFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	outputs := make([]string, stages)
	errs := make([]error, stages)
	for id := 0; id < stages; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cmd := exec.Command(bin,
				"-plan", mdl.PlanFile,
				"-id", strconv.Itoa(id),
				"-peers", peers,
				"-epochs", "3",
				"-checkpoint", ckptDir,
			)
			out, err := cmd.CombinedOutput()
			outputs[id], errs[id] = string(out), err
		}(id)
	}
	wg.Wait()
	for id := 0; id < stages; id++ {
		if errs[id] != nil {
			t.Fatalf("worker %d failed: %v\n%s", id, errs[id], outputs[id])
		}
	}

	// The output stage (last worker) printed per-epoch losses.
	losses := parseEpochLosses(t, outputs[stages-1])
	if len(losses) != 3 {
		t.Fatalf("got %d epoch losses, want 3; output:\n%s", len(losses), outputs[stages-1])
	}
	// The same plan file in one process over channels.
	plan, err := mdl.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pipeline.Options{
		ModelFactory: task.Factory,
		Plan:         plan,
		Loss:         nn.SoftmaxCrossEntropy,
		NewOptimizer: task.NewOptimizer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for e, got := range losses {
		rep, err := p.Train(task.Train, task.Train.NumBatches())
		if err != nil {
			t.Fatal(err)
		}
		// The worker prints six decimals; compare at that precision.
		if want := fmt.Sprintf("%.6f", rep.MeanLoss()); fmt.Sprintf("%.6f", got) != want {
			t.Fatalf("epoch %d: three processes printed loss %.6f, one process computes %s", e+1, got, want)
		}
	}
	trained, _, err := checkpoint.LoadModel(ckptDir, task.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want := p.CollectModel().Params()
	for i, got := range trained.Params() {
		for j := range got.Data {
			if math.Float32bits(got.Data[j]) != math.Float32bits(want[i].Data[j]) {
				t.Fatalf("param %d[%d]: three processes ended at %v, one process at %v", i, j, got.Data[j], want[i].Data[j])
			}
		}
	}

	// Coordination-free checkpointing: one generation directory holding
	// one file per stage plus the shared manifest each process wrote.
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	var gen string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") {
			gen = e.Name()
		}
	}
	if gen == "" {
		t.Fatalf("no checkpoint generation written in %s", ckptDir)
	}
	if _, err := os.Stat(filepath.Join(ckptDir, gen, "MANIFEST.json")); err != nil {
		t.Fatalf("generation manifest missing: %v", err)
	}
	for s := 0; s < stages; s++ {
		path := filepath.Join(ckptDir, gen, fmt.Sprintf("stage%02d_replica00.ckpt", s))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("stage %d checkpoint missing: %v", s, err)
		}
	}
}

func parseEpochLosses(t *testing.T, out string) []float64 {
	t.Helper()
	var losses []float64
	for _, line := range strings.Split(out, "\n") {
		// "epoch  1: mean loss 0.123456, wall 12ms"
		fields := strings.Fields(line)
		if len(fields) == 7 && fields[0] == "epoch" && fields[3] == "loss" {
			v, err := strconv.ParseFloat(strings.TrimSuffix(fields[4], ","), 64)
			if err != nil {
				t.Fatalf("bad loss line %q: %v", line, err)
			}
			losses = append(losses, v)
		}
	}
	return losses
}
