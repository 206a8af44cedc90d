package collective

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorPoisonOnPut is internal/tensor's use-after-release detector (see
// pool.go there). This package's tests run with it on: a chunk the ring
// releases before it has read it turns the averages into NaNs, and a
// second release of one chunk panics.
//
//go:linkname tensorPoisonOnPut pipedream/internal/tensor.poisonOnPut
var tensorPoisonOnPut bool

func TestMain(m *testing.M) {
	tensorPoisonOnPut = true
	os.Exit(m.Run())
}
