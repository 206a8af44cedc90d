package topology

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

// TestAllReduceTimeHasOnePricer keeps one formula for a replicated
// stage: outside bench/ and tests, AllReduceTime is read only by the
// planner's stageTime and by the simulator that runs its plans, so a data
// parallel baseline or any other price has to go through the planner's.
func TestAllReduceTimeHasOnePricer(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	allowed := func(file, fn string) bool {
		return file == "internal/cluster/sim.go" ||
			file == "internal/partition/partition.go" && fn == "stageTime"
	}
	fset := token.NewFileSet()
	allowedReads := 0
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
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "AllReduceTime" {
					return true
				}
				if allowed(rel, fn) {
					allowedReads++
				} else {
					t.Errorf("%s: %s reads AllReduceTime; price a replicated stage through the planner (partition.NewPlan)",
						fset.Position(sel.Pos()), fn)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allowedReads < 2 {
		t.Fatalf("found %d of the two allowed reads under %s: the walk missed the planner or the simulator", allowedReads, root)
	}
}
