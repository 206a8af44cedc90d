package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestNoPanicOnDataPathOrMembership holds the transport's send and receive
// path and the membership view to returning errors: a dropped peer or a
// malformed frame must surface as an error the runtime can recover from,
// and liveness code must degrade rather than crash. Any call of the panic
// builtin in those files fails the test.
func TestNoPanicOnDataPathOrMembership(t *testing.T) {
	files := []string{"transport.go", "frame.go", "chaos.go", "errors.go"}
	membership, err := filepath.Glob(filepath.Join("..", "membership", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(membership) == 0 {
		t.Fatal("no files found in ../membership")
	}
	files = append(files, membership...)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				t.Errorf("%s: panic call; return an error instead", fset.Position(call.Pos()))
			}
			return true
		})
	}
}
