package pipedream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedIdentifiersHaveDocComments holds the runtime, serving and
// storage packages to documenting their API: every exported top-level
// func, method (whatever its receiver), type, var and const in them has a
// doc comment, and so does every exported name of a parenthesized group
// that has no comment of its own for the group.
func TestExportedIdentifiersHaveDocComments(t *testing.T) {
	dirs := []string{"internal/pipeline", "internal/metrics", "internal/serve", "internal/serve/fleet",
		"internal/cliconf", "internal/tensor", "internal/checkpoint", "internal/membership"}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			missing := func(pos token.Pos, name string) {
				t.Errorf("%s: exported %s missing doc comment", fset.Position(pos), name)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						missing(d.Pos(), d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Doc != nil {
						continue
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil {
								missing(s.Pos(), s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && s.Doc == nil {
									missing(name.Pos(), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}
