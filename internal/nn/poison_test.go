package nn

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorPoisonOnPut is internal/tensor's use-after-release detector (see
// pool.go there): with it on, every tensor this package's tests release
// is overwritten with signalling NaNs, so a layer or Sequential that
// releases something still in use fails the numeric tests.
//
//go:linkname tensorPoisonOnPut pipedream/internal/tensor.poisonOnPut
var tensorPoisonOnPut bool

func TestMain(m *testing.M) {
	tensorPoisonOnPut = true
	os.Exit(m.Run())
}
