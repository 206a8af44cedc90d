package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzTensors decodes an arbitrary byte string into a tensor list: the
// first byte picks the tensor count, the following bytes pick sizes
// (zero-length tensors included), and the remainder is consumed four
// bytes at a time as raw float32 bits (NaN and Inf payloads included).
func fuzzTensors(data []byte) []*Tensor {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0] % 9) // 0..8 tensors
	data = data[1:]
	ts := make([]*Tensor, 0, n)
	for i := 0; i < n; i++ {
		size := 0
		if len(data) > 0 {
			size = int(data[0] % 33) // 0..32 elements
			data = data[1:]
		}
		g := New(size)
		for j := 0; j < size && len(data) >= 4; j++ {
			g.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
		}
		ts = append(ts, g)
	}
	return ts
}

// FuzzPackRoundTrip checks flat storage on any list of tensors, empty
// ones and NaN payloads included: Pack keeps every header and every bit,
// lays the tensors out back to back in list order, Flat finds that array
// again (and refuses a list that is not laid out so), and Bind to a second
// array moves every view without touching an element.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 32, 0xff, 0xff, 0xff, 0x7f}) // NaN bits
	f.Add([]byte{8})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTensors(data)
		var want []uint32
		nonEmpty := 0
		for _, x := range ts {
			for _, v := range x.Data {
				want = append(want, math.Float32bits(v))
			}
			if len(x.Data) > 0 {
				nonEmpty++
			}
		}
		if _, ok := Flat(ts); ok && nonEmpty > 1 {
			t.Fatal("separately allocated tensors pass for flat storage")
		}
		headers := append([]*Tensor(nil), ts...)
		flat := Pack(ts)
		if len(flat) != len(want) {
			t.Fatalf("packed %d elements, inputs total %d", len(flat), len(want))
		}
		check := func(flat []float32, what string) {
			t.Helper()
			off := 0
			for i, x := range ts {
				if x != headers[i] {
					t.Fatalf("%s replaced header %d", what, i)
				}
				for j, v := range x.Data {
					if math.Float32bits(v) != want[off] || &x.Data[j] != &flat[off] {
						t.Fatalf("%s: tensor %d[%d] is not element %d of the array, bit for bit", what, i, j, off)
					}
					off++
				}
			}
			if got, ok := Flat(ts); !ok || len(got) != len(flat) || (len(flat) > 0 && &got[0] != &flat[0]) {
				t.Fatalf("%s: Flat does not return the array (ok=%v, %d elements)", what, ok, len(got))
			}
		}
		check(flat, "Pack")
		second := append([]float32(nil), flat...)
		Bind(ts, second)
		check(second, "Bind")
		for i, v := range flat {
			if math.Float32bits(v) != want[i] {
				t.Fatalf("Bind wrote element %d of the array it left", i)
			}
		}
	})
}

func TestBindPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("binding 3 elements to an array of 4 did not panic")
		}
	}()
	Bind([]*Tensor{New(1), New(2)}, make([]float32, 4))
}

// Scrub is the release mark of privately owned arrays: the pool's
// signalling NaN with the detector on, nothing without it.
func TestScrubPoisonsOnlyUnderTheDetector(t *testing.T) {
	a := []float32{1, 2, 3}
	defer PoisonOnPut(PoisonOnPut(false))
	Scrub(a)
	if a[0] != 1 || a[2] != 3 {
		t.Fatalf("Scrub wrote %v with the detector off", a)
	}
	PoisonOnPut(true)
	Scrub(a)
	for i, v := range a {
		if math.Float32bits(v) != poisonBits {
			t.Fatalf("element %d = %x after Scrub, want the poison pattern", i, math.Float32bits(v))
		}
	}
}
