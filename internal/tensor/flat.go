package tensor

import (
	"fmt"
	"math"
)

// Flat storage for a list of tensors: their elements back to back in one
// array, each tensor's Data a view of its range. A stage's parameters and
// gradients are kept this way, so that a weight version is one array the
// layers are pointed at instead of a copy per tensor, and a gradient
// bucket or a whole gradient is a sub-slice of the array instead of a
// flattened copy. The *Tensor headers are what the rest of the program
// holds (layer fields, optimizer state keys); only their Data moves.
//
// These arrays are private to their owner and never enter the pool: they
// are exactly sized, and a view of one must not be handed to Put.

// Pack moves the storage of ts into one new array: it copies their
// elements there back to back, in order, re-points every tensor's Data at
// its range (Bind) and returns the array.
func Pack(ts []*Tensor) []float32 {
	n := 0
	for _, t := range ts {
		n += len(t.Data)
	}
	flat := make([]float32, n)
	off := 0
	for _, t := range ts {
		off += copy(flat[off:], t.Data)
	}
	Bind(ts, flat)
	return flat
}

// Bind points the tensors of ts at consecutive ranges of flat, ts[0]
// first, each of its own current size: slice-header writes only, no
// element is copied. flat must hold exactly their total size.
func Bind(ts []*Tensor, flat []float32) {
	off := 0
	for _, t := range ts {
		n := len(t.Data)
		t.Data = flat[off : off+n]
		off += n
	}
	if off != len(flat) {
		panic(fmt.Sprintf("tensor: bind %d elements to an array of %d", off, len(flat)))
	}
}

// Views returns new headers with the shapes of ts (shared, not copied),
// bound to consecutive ranges of flat: a second set of views, for an
// array the tensors of ts themselves are not pointed at.
func Views(ts []*Tensor, flat []float32) []*Tensor {
	views := make([]*Tensor, len(ts))
	for i, t := range ts {
		views[i] = &Tensor{Shape: t.Shape, Data: t.Data}
	}
	Bind(views, flat)
	return views
}

// Flat returns the array that holds ts back to back in order, as Pack and
// Bind leave them, and false if they are not laid out that way.
func Flat(ts []*Tensor) ([]float32, bool) {
	n := 0
	for _, t := range ts {
		n += len(t.Data)
	}
	var flat []float32
	off := 0
	for _, t := range ts {
		switch {
		case len(t.Data) == 0:
		case flat == nil: // the first tensor with elements: off is 0
			if cap(t.Data) < n {
				return nil, false
			}
			flat = t.Data[:n]
		case &flat[off] != &t.Data[0]:
			return nil, false
		}
		off += len(t.Data)
	}
	return flat, true
}

// Scrub marks an array its owner has released to a free list of its own:
// with the use-after-release detector on (poisonOnPut, tests only) it is
// filled with the signalling NaN that Put writes, so that a reader that
// kept a view of it computes NaNs; otherwise it does nothing.
func Scrub(flat []float32) {
	if !poisonOnPut {
		return
	}
	p := math.Float32frombits(poisonBits)
	for i := range flat {
		flat[i] = p
	}
}
