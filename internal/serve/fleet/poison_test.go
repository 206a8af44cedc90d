package fleet

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorPoisonOnPut is internal/tensor's use-after-release detector (see
// pool.go there). Every test of this package runs with it on, like
// internal/serve's: a tensor released while something still reads it turns
// the outputs the tests compare bit for bit into NaNs, and a second release
// of one array panics.
//
//go:linkname tensorPoisonOnPut pipedream/internal/tensor.poisonOnPut
var tensorPoisonOnPut bool

func TestMain(m *testing.M) {
	tensorPoisonOnPut = true
	os.Exit(m.Run())
}
