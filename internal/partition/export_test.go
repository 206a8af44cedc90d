package partition

// Test helpers for the tests in package partition_test, which simulate
// plans through package cluster (and package cluster imports this one).
var (
	FlatCase         = flatCase
	TwoLevelCase     = twoLevelCase
	SyntheticProfile = syntheticProfile
)
