package checkpoint

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNewestRelistsAfterEveryListedGenerationIsPruned: a concurrent
// writer that writes a newer generation and prunes every one the reader
// listed while the reader loads the newest of them must send the reader
// back to a fresh listing, where it finds the newer generation.
func TestNewestRelistsAfterEveryListedGenerationIsPruned(t *testing.T) {
	dir := t.TempDir()
	factory := testFactory(6)
	writeGeneration(t, dir, 10, factory())
	writeGeneration(t, dir, 20, factory())
	var loaded []int
	man, err := Newest(dir, func(gdir string, man *Manifest) error {
		loaded = append(loaded, man.Generation)
		if man.Generation == 20 {
			// The writer lands generation 30 and prunes 10 and 20
			// before this reader opens its shard.
			writeGeneration(t, dir, 30, factory())
			Prune(dir, 1)
		}
		_, err := ReadShard(gdir, man, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if man.Generation != 30 || !slices.Equal(loaded, []int{20, 30}) {
		t.Fatalf("Newest = generation %d after loading %v; want 30 after [20 30]", man.Generation, loaded)
	}
}

// TestNewestMissingDirIsNoGenerationYet: a directory the trainer has not
// created yet holds no generation — the one error pollers wait on — and
// still says why.
func TestNewestMissingDirIsNoGenerationYet(t *testing.T) {
	_, err := Latest(filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, ErrNoGeneration) || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Latest on a missing directory: %v; want ErrNoGeneration wrapping fs.ErrNotExist", err)
	}
}

// TestListGenerationsHasTwoCallers holds the one-walker rule: outside
// tests and bench/, only Newest and Prune list the generation
// directories, so every reader — restore, rescale, the serving follower,
// LoadModel — picks its generation by Newest's skip, fail and re-list
// rules.
func TestListGenerationsHasTwoCallers(t *testing.T) {
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
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
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
				if name == "ListGenerations" {
					callers = append(callers, rel+":"+fn)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/checkpoint/checkpoint.go:Newest", "internal/checkpoint/checkpoint.go:Prune"}
	slices.Sort(callers)
	if !slices.Equal(callers, want) {
		t.Fatalf("ListGenerations callers outside tests and bench/: %v; want %v (pick a generation through checkpoint.Newest)",
			callers, want)
	}
}
