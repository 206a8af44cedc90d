package profile

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorPoisonOnPut is internal/tensor's use-after-release detector (see
// pool.go there). Every test of this package runs with it on: a profile
// that releases one array twice panics, and one that reads a released
// activation computes on NaNs.
//
//go:linkname tensorPoisonOnPut pipedream/internal/tensor.poisonOnPut
var tensorPoisonOnPut bool

func TestMain(m *testing.M) {
	tensorPoisonOnPut = true
	os.Exit(m.Run())
}
