package pipedream

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFacadeGolden pins the package's exported surface — every re-exported
// name, its declaration and its doc comment — to testdata/facade.golden, the
// output of `go doc -all .`: a name added, removed or re-documented shows as
// a diff here instead of being promised in a PR description. After a
// deliberate change, regenerate with UPDATE_GOLDEN=1.
func TestFacadeGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "doc", "-all", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go doc -all .: %v\n%s", err, out)
	}
	const golden = "testdata/facade.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	got, wantLines := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		g, w := "<end>", "<end>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("the exported surface differs from %s at line %d (UPDATE_GOLDEN=1 regenerates):\n  go doc: %s\n  golden: %s", golden, i+1, g, w)
		}
	}
}
