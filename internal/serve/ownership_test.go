package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pipedream/internal/tensor"
)

// pooledInput is testInput as a front door hands it over: a pooled tensor
// the caller releases once Infer has returned a result.
func pooledInput(seed int64, rows int) *tensor.Tensor {
	src := testInput(seed, rows)
	x := tensor.GetRaw(src.Shape...)
	copy(x.Data, src.Data)
	return x
}

// TestRequestTensorIsCallersAfterInfer is the ownership rule the /infer
// handler relies on: when Infer returns a result, no stage reads the
// request tensor any more, so the caller may release it. Requests of one
// row (coalesced: copied out at dispatch), of exactly MaxBatch rows
// (passed through) and of more (split into zero-copy row-range aliases)
// run concurrently, each releasing its tensor as soon as it has its
// answer; with the pool poisoned, a stage that still read one would
// compute NaNs for somebody's bit-exact comparison.
func TestRequestTensorIsCallersAfterInfer(t *testing.T) {
	ref := testModel(21)
	s := mustServer(t, Config{Model: testModel(21), Plan: plan2(), InputShape: []int{2},
		MaxBatch: 4, BatchTimeout: 200 * time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				rows := []int{1, 4, 9, 2, 13}[(g+i)%5]
				seed := int64(g*1000 + i)
				x := pooledInput(seed, rows)
				y, err := s.Infer(x)
				if err != nil {
					t.Errorf("request %d/%d: %v", g, i, err)
					return
				}
				tensor.Put(x)
				want, _ := ref.Slice(0, len(ref.Layers)).Forward(testInput(seed, rows), false)
				for j := range want.Data {
					if y.Data[j] != want.Data[j] {
						t.Errorf("request %d/%d (%d rows): output %d = %v, want %v", g, i, rows, j, y.Data[j], want.Data[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseRacingPooledRequests: Close lands while split and whole
// requests are queued, dispatching and in the stages. Every request ends
// with a bit-exact result or ErrServerClosed, and a tensor is released
// only after a result — ErrServerClosed itself is delivered only once no
// stage worker runs, which is what lets a fleet retry the same tensor on
// another replica.
func TestCloseRacingPooledRequests(t *testing.T) {
	for round := 0; round < 20; round++ {
		ref := testModel(22)
		s, err := NewServer(Config{Model: testModel(22), Plan: plan2(), InputShape: []int{2},
			MaxBatch: 4, BatchTimeout: 100 * time.Microsecond, MaxInFlight: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					rows := []int{11, 1, 4, 7}[(g+i)%4]
					seed := int64(g*1000 + i)
					x := pooledInput(seed, rows)
					y, err := s.Infer(x)
					if errors.Is(err, ErrServerClosed) {
						return
					}
					if err != nil {
						t.Errorf("request %d/%d: %v", g, i, err)
						return
					}
					tensor.Put(x)
					want, _ := ref.Slice(0, len(ref.Layers)).Forward(testInput(seed, rows), false)
					for j := range want.Data {
						if y.Data[j] != want.Data[j] {
							t.Errorf("request %d/%d (%d rows): output %d = %v, want %v", g, i, rows, j, y.Data[j], want.Data[j])
							return
						}
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 300 * time.Microsecond)
		s.Close()
		wg.Wait()
	}
}
