package tensor

import (
	"math"
	"testing"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// With the detector on, a released tensor reads as signalling NaNs under
// a shape no kernel accepts, through its own header and through a view; a
// second release of the array — same header, or a view and its base —
// panics; and a tensor taken from the free list and released unwritten
// (a truncated frame's) does not.
func TestPoisonOnPutCatchesUseAfterRelease(t *testing.T) {
	defer PoisonOnPut(PoisonOnPut(true))

	x := GetRaw(3, 5)
	x.Fill(2)
	view := x.Reshape(15)
	Put(x)
	for i, v := range view.Data {
		if math.Float32bits(v) != poisonBits {
			t.Fatalf("view element %d reads %v after the release", i, v)
		}
	}
	if x.Shape[0] >= 0 {
		t.Fatalf("released header keeps shape %v", x.Shape)
	}
	mustPanic(t, "second Put of the header", func() { Put(x) })
	mustPanic(t, "Put of a view of a released tensor", func() { Put(view) })

	// The free list normally hands this goroutine its own last Put.
	y := GetRaw(15)
	if !SharesStorage(y, view) {
		t.Skip("the free list handed out another array")
	}
	Put(y) // unwritten since it left the free list: a first release
	mustPanic(t, "second Put after reuse", func() { Put(y) })
}

func TestSharesStorage(t *testing.T) {
	a := GetRaw(4, 4)
	for _, c := range []struct {
		name string
		b    *Tensor
		want bool
	}{
		{"itself", a, true},
		{"reshape", a.Reshape(16), true},
		{"clone", a.Clone(), false},
		{"later elements", FromSlice(a.Data[4:], 12), false},
		{"nil", nil, false},
		{"empty", New(0), false},
	} {
		if got := SharesStorage(a, c.b); got != c.want {
			t.Errorf("SharesStorage(a, %s) = %v, want %v", c.name, got, c.want)
		}
	}
	if e := GetRaw(0, 3); !SharesStorage(e, e.Reshape(3, 0)) {
		t.Error("a view of an empty pooled tensor shares its (capacity-only) storage")
	}
}
