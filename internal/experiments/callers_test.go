package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// simulateCallers are the functions that may run cluster.Simulate, each
// for what the planner's price does not model. Every 1F1B throughput row
// reads the price (Table.price), every GPipe one the GPipe price
// (Table.gpipe) and every 1F1B memory row the memory price (Table.memory),
// which TestPredictedVersusSimulated referees.
var simulateCallers = map[string]string{
	"fig15":        "the referee column of the figure",
	"ablStraggler": "a slowed stage under the nominal plan's windows, which the price reads 2 % high at 1.25x (FIFO link order)",
	"fig5":         "transfers and their overlap with compute",
	"timelineRun":  "the fig2-fig4 timelines",
	"fig8":         "the 1F1B-RR timeline",
}

// TestSimulateCallersAreListed keeps one number per plan: outside tests,
// only the functions in simulateCallers call cluster.Simulate, each of
// them does, and there is no simThroughput, so a new 1F1B or GPipe row
// cannot go back to the simulator unnoticed.
func TestSimulateCallersAreListed(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	called := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Name.Name == "simThroughput" {
				t.Errorf("%s: simThroughput is back; price a 1F1B row with Table.price", fset.Position(fd.Pos()))
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Simulate" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "cluster" {
					return true
				}
				if _, listed := simulateCallers[fd.Name.Name]; !listed {
					t.Errorf("%s: %s calls cluster.Simulate; a throughput or memory row prints Table.price, Table.gpipe or Table.memory, or the function joins simulateCallers with its reason",
						fset.Position(sel.Pos()), fd.Name.Name)
				}
				called[fd.Name.Name] = true
				return true
			})
		}
	}
	for fn := range simulateCallers {
		if !called[fn] {
			t.Errorf("%s is listed in simulateCallers but calls no cluster.Simulate", fn)
		}
	}
}
