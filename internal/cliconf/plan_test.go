package cliconf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlanRejectsAnotherModelsPlanFile holds -plan to the task it runs: a
// file written for another model, or for the same name with other layers,
// is refused with an error that names both sides.
func TestPlanRejectsAnotherModelsPlanFile(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		want       []string
	}{
		{"other model", `{"model": "spiral", "stages": [{"FirstLayer": 0, "LastLayer": 5, "Replicas": 1}]}`,
			[]string{`"spiral"`, `"images"`}},
		{"fewer layers", `{"model": "images", "stages": [{"FirstLayer": 0, "LastLayer": 4, "Replicas": 1}]}`,
			[]string{"covers 5 layers", "has 6"}},
		{"more layers", `{"model": "images", "stages": [{"FirstLayer": 0, "LastLayer": 2, "Replicas": 1}, {"FirstLayer": 3, "LastLayer": 6, "Replicas": 1}]}`,
			[]string{"covers 7 layers", "has 6"}},
	} {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
			t.Fatal(err)
		}
		mdl := &Model{Task: "images", Seed: 42, PlanFile: path}
		task, err := mdl.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = mdl.Plan(task)
		if err == nil {
			t.Fatalf("%s: plan accepted", tc.name)
		}
		for _, w := range append(tc.want, path) {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
	}
}

// TestPlanReadsWhatItCuts round-trips a measured cut through a plan file:
// the file's stages, replicas and depth come back as written.
func TestPlanReadsWhatItCuts(t *testing.T) {
	mdl := &Model{Task: "sequence", Seed: 42, Stages: 2, Replicas: 2}
	task, err := mdl.Build()
	if err != nil {
		t.Fatal(err)
	}
	cut, err := mdl.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Workers != 3 || len(cut.Stages) != 2 || cut.Stages[0].Replicas != 2 {
		t.Fatalf("cut %s, want 2 stages on 3 workers, the first replicated twice", cut)
	}
	cut.Depth = 5
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
	read, err := mdl.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range read.Stages {
		if st != cut.Stages[i] {
			t.Fatalf("stage %d read back as %+v, written as %+v", i, st, cut.Stages[i])
		}
	}
	if read.Depth != 5 || read.Workers != 3 {
		t.Fatalf("read depth %d on %d workers, wrote depth 5 on 3", read.Depth, read.Workers)
	}
}

// TestBuildPlanHasNoCallers holds the one-planner rule: outside tests and
// bench/, no code calls the deprecated BuildPlan — every runtime binary
// plans through Model.Plan (or, for elastic re-plans, Cut).
func TestBuildPlanHasNoCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	var callers []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch f := call.Fun.(type) {
			case *ast.Ident:
				name = f.Name
			case *ast.SelectorExpr:
				name = f.Sel.Name
			}
			if name == "BuildPlan" {
				callers = append(callers, fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(callers) > 0 {
		t.Fatalf("BuildPlan called outside tests and bench/ at %v; plan through Model.Plan", callers)
	}
}
