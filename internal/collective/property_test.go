package collective

import (
	"math"
	"math/rand"
	"testing"

	"pipedream/internal/tensor"
)

// TestRingPropertyMatchesNaiveReference is the randomized equivalence
// suite: across random tensor shapes, replica counts 2–5, partial-round
// participant subsets, and bucket sizes, the chunked ring all-reduce must
// (a) match the naive sum-then-divide reference within 1e-6 and (b) be
// bit-identical across two runs over the same inputs — the determinism
// invariant that makes training reproducible.
func TestRingPropertyMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	bucketChoices := []int{4, 16, 64, 256, 1024, 1 << 20}
	for trial := 0; trial < 40; trial++ {
		replicas := 2 + rng.Intn(4) // 2..5
		participants := replicas
		if rng.Intn(3) == 0 && replicas > 2 {
			participants = 2 + rng.Intn(replicas-1) // partial final round
		}
		nTensors := 1 + rng.Intn(6)
		shapes := make([][]int, nTensors)
		for ti := range shapes {
			dims := 1 + rng.Intn(3)
			shape := make([]int, dims)
			for d := range shape {
				shape[d] = rng.Intn(9) // 0..8, zero-sized dims included
			}
			shapes[ti] = shape
		}
		bucketBytes := bucketChoices[rng.Intn(len(bucketChoices))]

		base := make([][]*tensor.Tensor, replicas)
		for r := 0; r < replicas; r++ {
			for _, shape := range shapes {
				g := tensor.New(shape...)
				for i := range g.Data {
					g.Data[i] = rng.Float32()*2 - 1
				}
				base[r] = append(base[r], g)
			}
		}
		want := naiveAverage(base, participants)

		run := func(perLayer bool) [][]*tensor.Tensor {
			grads := cloneGrads(base)
			tr, rings := makeRings(replicas, bucketBytes)
			defer tr.Close()
			runRound(t, tr, rings, grads, trial*60, participants, perLayer) // 60: rank 0 first for every R
			return grads
		}
		first := run(rng.Intn(2) == 0)
		second := run(rng.Intn(2) == 0)
		if t.Failed() {
			t.Fatalf("trial %d (replicas=%d participants=%d buckets=%dB shapes=%v)",
				trial, replicas, participants, bucketBytes, shapes)
		}

		for r := 0; r < participants; r++ {
			for ti := range base[r] {
				for i := range base[r][ti].Data {
					got := float64(first[r][ti].Data[i])
					if math.Abs(got-want[ti][i]) > 1e-6 {
						t.Fatalf("trial %d replica %d tensor %d[%d]: ring %.9f vs naive %.9f (replicas=%d participants=%d buckets=%dB)",
							trial, r, ti, i, got, want[ti][i], replicas, participants, bucketBytes)
					}
					a := math.Float32bits(first[r][ti].Data[i])
					b := math.Float32bits(second[r][ti].Data[i])
					if a != b {
						t.Fatalf("trial %d replica %d tensor %d[%d]: runs differ bit-wise: %08x vs %08x",
							trial, r, ti, i, a, b)
					}
				}
			}
		}
		// All participants must leave with identical bits (consensus).
		for r := 1; r < participants; r++ {
			for ti := range first[r] {
				for i := range first[r][ti].Data {
					if math.Float32bits(first[r][ti].Data[i]) != math.Float32bits(first[0][ti].Data[i]) {
						t.Fatalf("trial %d: replica %d disagrees with replica 0 at tensor %d[%d]", trial, r, ti, i)
					}
				}
			}
		}
	}
}

// TestRingPartialRoundIsRelabelling holds the round/rank rule: a P-of-R
// round whose first participant is rank f leaves on each participant the
// bits of a fresh P-peer ring in which rank i holds rank (f+i) mod R's
// gradients, and leaves everyone else's gradients alone — for every R ≤ 5
// and every (f, P). At P = 2 the result is also (a + b)/2 computed directly.
func TestRingPartialRoundIsRelabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for replicas := 2; replicas <= 5; replicas++ {
		base := make([][]*tensor.Tensor, replicas)
		for r := range base {
			for _, n := range []int{7, 0, 23, 5} { // three buckets of 16 bytes or more
				g := tensor.New(n)
				for i := range g.Data {
					g.Data[i] = rng.Float32()*2 - 1
				}
				base[r] = append(base[r], g)
			}
		}
		for f := 0; f < replicas; f++ {
			for p := 2; p <= replicas; p++ {
				got := cloneGrads(base)
				tr, rings := makeRings(replicas, 16)
				runRound(t, tr, rings, got, replicas+f, p, f%2 == 0)
				tr.Close()

				relabelled := make([][]*tensor.Tensor, p)
				for i := range relabelled {
					relabelled[i] = base[(f+i)%replicas]
				}
				want := cloneGrads(relabelled)
				tr, rings = makeRings(p, 16)
				runRound(t, tr, rings, want, 0, p, true)
				tr.Close()

				for r := range got {
					i := mod(r-f, replicas)
					for ti, g := range got[r] {
						same := func(ref []float32, what string) {
							t.Helper()
							for j, v := range g.Data {
								if math.Float32bits(v) != math.Float32bits(ref[j]) {
									t.Fatalf("R=%d f=%d P=%d rank %d tensor %d[%d] = %g, want %g: %s",
										replicas, f, p, r, ti, j, v, ref[j], what)
								}
							}
						}
						if i >= p {
							same(base[r][ti].Data, "a non-participant's gradient changed")
							continue
						}
						same(want[i][ti].Data, "differs from the relabelled fresh ring")
						if p == 2 {
							half := make([]float32, len(g.Data))
							tensor.AddScaleInto(half, base[f][ti].Data, base[(f+1)%replicas][ti].Data, 0.5)
							same(half, "differs from (a+b)/2")
						}
					}
				}
			}
		}
	}
}
