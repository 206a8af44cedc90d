package partition

// Test helpers for the tests in package partition_test, which simulate
// plans through package cluster (and package cluster imports this one).
var (
	FlatCase         = flatCase
	TwoLevelCase     = twoLevelCase
	SyntheticProfile = syntheticProfile
)

// EventGraph returns the node count of the graph price folds at the
// windows window (nil: GPipeThroughput's) and each arc's ends and
// minibatch offset d.
func EventGraph(p *Plan, window []int) (n int, arcs [][3]int) {
	n, as := p.eventGraph(window)
	for _, a := range as {
		arcs = append(arcs, [3]int{a.from, a.to, int(a.d)})
	}
	return n, arcs
}
