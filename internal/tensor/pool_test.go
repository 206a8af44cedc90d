package tensor

import (
	"math"
	"math/bits"
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

// Every n up to 2^20, and both sides of every class boundary up to 2^28,
// gets a capacity that holds it and is at most a quarter over (or the
// next power of two, below 5); classes number the capacities in strictly
// increasing order with no gap; and a power of two keeps its own size.
func TestSizeClassesHoldAtMostAQuarterMore(t *testing.T) {
	check := func(n int) (c, size int) {
		c, size = sizeClass(n)
		limit := (5*n + 3) / 4 // ⌈1.25·n⌉
		if n <= 4 {
			limit = max(limit, 1<<bits.Len(uint(n-1)))
		}
		if size < n || size > limit || c >= len(pools) {
			t.Fatalf("sizeClass(%d) = class %d, capacity %d: want a class below %d holding %d to %d",
				n, c, size, len(pools), n, limit)
		}
		return c, size
	}
	prevC, prevSize := check(1)
	for n := 2; n <= 1<<20; n++ {
		c, size := check(n)
		if c != prevC && (c != prevC+1 || size <= prevSize) {
			t.Fatalf("sizeClass(%d) = (%d, %d) after (%d, %d)", n, c, size, prevC, prevSize)
		}
		if c == prevC && size != prevSize {
			t.Fatalf("class %d has capacities %d and %d", c, prevSize, size)
		}
		prevC, prevSize = c, size
	}
	for n := 1; n <= 1<<28; {
		c, size := check(n)
		if c2, size2 := check(size); c2 != c || size2 != size {
			t.Fatalf("capacity %d of class %d maps to (%d, %d)", size, c, c2, size2)
		}
		if c2, size2 := check(size + 1); c2 != c+1 || size2 <= size {
			t.Fatalf("one past class %d's capacity %d maps to (%d, %d)", c, size, c2, size2)
		}
		n = size + 1
	}
	for k := 0; k <= 28; k++ {
		if _, size := check(1 << k); size != 1<<k {
			t.Errorf("2^%d elements get capacity %d", k, size)
		}
	}
	// A ring chunk of train-replicated's stage-0 bucket: 577 KiB, not 1 MiB.
	x := GetRaw(147712)
	defer Put(x)
	if cap(x.Data) != 163840 {
		t.Errorf("GetRaw(147712) has capacity %d, want 163840", cap(x.Data))
	}
}

// A GetRaw tensor put back is the next GetRaw of its size; Put takes a
// tensor of a class capacity, New's included, drops one of any other; and
// with the detector on, a second release of a class-capacity array that
// is not a power of two panics.
func TestPutRecyclesOnlyClassCapacities(t *testing.T) {
	for _, n := range []int{5, 147712, 163840, 1 << 18} {
		recycled := false
		// The free list is per P, and the race detector drops some puts.
		for try := 0; try < 20 && !recycled; try++ {
			x := GetRaw(n)
			Put(x)
			y := GetRaw(n)
			recycled = SharesStorage(x, y) && len(y.Data) == n
			Put(y)
		}
		if !recycled {
			t.Errorf("GetRaw(%d) never handed back the tensor put just before", n)
		}
	}

	for _, c := range []struct {
		n    int
		puts int64
	}{{147713, 0}, {163840, 1}, {9, 0}, {10, 1}} {
		_, _, puts0 := PoolCounters()
		Put(New(c.n))
		if _, _, puts1 := PoolCounters(); puts1-puts0 != c.puts {
			t.Errorf("Put(New(%d)) recycled %d tensors, want %d", c.n, puts1-puts0, c.puts)
		}
	}

	defer PoisonOnPut(PoisonOnPut(true))
	x := GetRaw(147712)
	if cap(x.Data) != 163840 {
		t.Fatalf("GetRaw(147712) has capacity %d, want 163840", cap(x.Data))
	}
	Put(x)
	mustPanic(t, "second Put of a 163,840-capacity array", func() { Put(x) })
}
