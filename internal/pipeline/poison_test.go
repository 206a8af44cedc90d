package pipeline

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorPoisonOnPut is internal/tensor's use-after-release detector (see
// pool.go there). Every test of this package runs with it on: a tensor the
// runtime or nn.Sequential releases while a layer context, an unsent
// message or a stash entry still reads it turns the losses — which the
// determinism, reference and recovery suites compare bit for bit — into
// NaNs, and a second release of one array panics.
//
//go:linkname tensorPoisonOnPut pipedream/internal/tensor.poisonOnPut
var tensorPoisonOnPut bool

func TestMain(m *testing.M) {
	tensorPoisonOnPut = true
	os.Exit(m.Run())
}
