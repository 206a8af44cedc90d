package partition

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

// TestDepthHasOneHome keeps the in-flight depth a single plan number:
// outside bench/ and tests, no struct declares a field named Depth or
// NOAM except Plan.Depth and planJSON.Depth, its form in a plan file,
// which only ReadJSON reads, into Plan.Depth. The schedule, the
// simulator, the runtime and the memory check read the plan's; a caller
// that wants another depth asks AtDepth, which re-prices the copy it
// returns, so outside bench/ and tests no code but evaluate, ReadJSON and
// AtDepth assigns to a Depth field.
func TestDepthHasOneHome(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	homes, files, writers := 0, 0, 0
	writes := func(rel, fn string, x ast.Expr) {
		if sel, ok := x.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Depth" {
			return
		}
		if strings.HasPrefix(rel, "internal/partition/") && (fn == "evaluate" || fn == "ReadJSON" || fn == "AtDepth") {
			writers++
			return
		}
		t.Errorf("%s: %s assigns to a Depth field; change a plan's depth with Plan.AtDepth, which re-prices it",
			fset.Position(x.Pos()), fn)
	}
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
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						writes(rel, fn.Name.Name, x)
					}
				case *ast.IncDecStmt:
					writes(rel, fn.Name.Name, n.X)
				}
				return true
			})
		}
		named := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					named[st] = ts.Name.Name
				}
			}
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.Name != "Depth" && name.Name != "NOAM" {
						continue
					}
					if rel == "internal/partition/partition.go" && named[st] == "Plan" && name.Name == "Depth" {
						homes++
						continue
					}
					if rel == "internal/partition/serialize.go" && named[st] == "planJSON" && name.Name == "Depth" {
						files++
						continue
					}
					t.Errorf("%s: struct %q declares %s; the in-flight depth is partition.Plan.Depth",
						fset.Position(name.Pos()), named[st], name.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if homes != 1 || files != 1 || writers != 3 {
		t.Fatalf("found Plan.Depth %d times, planJSON.Depth %d times and %d writes of Depth in evaluate, ReadJSON and AtDepth under %s, want 1, 1 and 3: the walk missed internal/partition",
			homes, files, writers, root)
	}
}
