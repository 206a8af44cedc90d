//go:build race

package pipeline

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so allocation bounds on the tensor pool do not hold.
const raceEnabled = true
