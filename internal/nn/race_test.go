//go:build race

package nn

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so bounds on the tensor pool's misses do not hold.
const raceEnabled = true
