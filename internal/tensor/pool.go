package tensor

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The buffer pool: a free list for scratch tensors. Steady-state
// training allocates the same handful of shapes every minibatch (im2col
// panels, gate pre-activations, gradient scratch); recycling them
// through sync.Pool size classes keeps the GC out of the hot path.
//
// The pool recycles whole *Tensor headers, not just backing arrays: a
// steady-state Get is allocation-free because the header, the Shape
// slice, and the data array all come back from the free list. Put
// re-slices Data to capacity and stores the header itself.
//
// Get returns a zero-filled tensor exactly like New, GetRaw one with
// undefined contents for callers that write every element; Put recycles
// either. The rule is one owner and one release point per tensor: a
// tensor is Put once, by its owner, when no reader is left — not by
// whoever happens to hold it last. For the tensors of a training step
// the owners are fixed (docs/ARCHITECTURE.md, "Tensor ownership in a
// training step", has the table): a layer owns its internal scratch and
// what its context holds, nn.Sequential the layer outputs and gradients
// that never leave it, the pipeline's stage worker what crosses a stage
// boundary (a transport's Send borrows a tensor, its receiver owns what
// it is delivered: internal/transport). A view (Reshape, FromSlice over a
// pooled tensor's Data) shares its base's array: release one of them,
// never both (SharesStorage tells). Never use a tensor after Put — with
// header recycling, a use-after-Put can observe a new shape as well as
// new data.
//
// What the pool does not hold: a stage's weights and gradients. They live
// in flat arrays (flat.go) that are exactly sized, private to the stage
// worker that made them and recycled, if at all, through that worker's own
// free list (internal/pipeline/versions.go) — a 1.18 MB weight version
// would otherwise round up to a 1.31 MB size class (at most a quarter
// over), while the memory price counts exact bytes. Views of such an
// array are never Put.

// pools[c] holds *Tensor headers whose Data capacity is exactly the
// capacity sizeClass gives class c: 1, 2 and 4, then four classes per
// doubling, 2^k × {1.25, 1.5, 1.75, 2}, so a pooled tensor holds at most
// a quarter more than was asked for. 123 classes reach 1<<32 elements.
var pools [123]sync.Pool

// Buffer-pool traffic counters: hits are Gets served from the free list,
// misses are Gets that allocated, puts are tensors recycled. One atomic
// add per Get/Put (calls are per-scratch-tensor, not per-element) keeps
// the pool observable at negligible cost.
var poolHits, poolMisses, poolPuts atomic.Int64

// PoolCounters reports the buffer pool's cumulative traffic since process
// start: free-list hits, allocating misses, and recycled puts. The
// miss count in steady-state training is the pool's leak detector —
// it should stop growing once every per-minibatch shape has been seen.
func PoolCounters() (hits, misses, puts int64) {
	return poolHits.Load(), poolMisses.Load(), poolPuts.Load()
}

// sizeClass returns the smallest class c whose capacity holds n, and
// that capacity: 1<<c up to n = 4, then q<<s with q in 5..8 and
// (q-1)<<s < n, which is under 1.25·n since 4<<s < n. Powers of two keep
// the capacities they had when every class was one.
func sizeClass(n int) (c, capacity int) {
	if n <= 4 {
		c = bits.Len(uint(max(n, 1) - 1))
		return c, 1 << c
	}
	s := bits.Len(uint(n-1)) - 3
	q := (n-1)>>s + 1
	return 4*s + q - 2, q << s
}

// grab returns a pooled tensor re-shaped to shape, or a freshly
// allocated one with pool-compatible capacity. The shape slice is
// copied, never retained, so variadic callers stay allocation-free.
func grab(shape []int, zero bool) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in Get")
		}
		n *= d
	}
	c, size := sizeClass(n)
	if v := pools[c].Get(); v != nil {
		poolHits.Add(1)
		t := v.(*Tensor)
		if poisonOnPut {
			t.Data[0] = 0 // no longer released: see poison
		}
		t.Data = t.Data[:n]
		if cap(t.Shape) >= len(shape) {
			t.Shape = t.Shape[:len(shape)]
		} else {
			t.Shape = make([]int, len(shape))
		}
		copy(t.Shape, shape)
		if zero {
			for i := range t.Data {
				t.Data[i] = 0
			}
		}
		return t
	}
	poolMisses.Add(1)
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float32, n, size)}
}

// Get returns a zero-filled tensor of the given shape, reusing a pooled
// header and backing array when one is available. Pair with Put when
// the tensor is pure scratch.
func Get(shape ...int) *Tensor { return grab(shape, true) }

// GetRaw returns a tensor of the given shape with UNINITIALIZED
// contents — the zero-fill of Get skipped — for callers that overwrite
// every element before reading any (message payloads, copy
// destinations). Pair with Put like Get.
func GetRaw(shape ...int) *Tensor { return grab(shape, false) }

// Put recycles t — header, shape, and backing array — into the free
// list. t must not be used afterwards. Tensors whose capacity is not a
// pooled size class (e.g. built by New or FromSlice) are dropped
// silently, so Put is always safe to call on a tensor you own — but
// never on one that has another reader or that shares its array with a
// tensor released elsewhere.
func Put(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	c, size := sizeClass(cap(t.Data))
	if size != cap(t.Data) {
		return // not a pool buffer; let the GC have it
	}
	poolPuts.Add(1)
	t.Data = t.Data[:cap(t.Data)]
	if poisonOnPut {
		poison(t)
	}
	pools[c].Put(t)
}

// SharesStorage reports whether a and b start at the same element of
// the same backing array — b is a itself, or one is a view of the other
// (Reshape, an identity layer's pass-through). The owner of a pooled
// tensor uses it to release an array exactly once.
func SharesStorage(a, b *Tensor) bool {
	if a == nil || b == nil || cap(a.Data) == 0 || cap(b.Data) == 0 {
		return false
	}
	return &a.Data[:1][0] == &b.Data[:1][0]
}

// poisonOnPut is the use-after-release detector, for tests only (set
// through export_test.go here and from other packages' TestMain; no
// product code touches it): when set, Put overwrites the whole backing
// array with a signalling NaN and the shape with a negative dimension
// before the tensor enters the free list, so a reader that kept the
// tensor — or a view of it — computes NaN losses or panics on the shape
// instead of silently reading whatever the next owner writes. The first
// element doubles as the array's "released" mark, cleared when the free
// list hands the array out again: a Put that finds it set is a second
// release, through the same header or through a view, and panics.
var poisonOnPut bool

// poisonBits is a signalling NaN no kernel produces.
const poisonBits = 0x7fa0dead

func poison(t *Tensor) {
	if math.Float32bits(t.Data[0]) == poisonBits {
		panic("tensor: Put of an array that is already released")
	}
	p := math.Float32frombits(poisonBits)
	for i := range t.Data {
		t.Data[i] = p
	}
	t.Shape = append(t.Shape[:0], -1)
}
