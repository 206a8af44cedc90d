package tensor

// PoisonOnPut turns the use-after-release detector (pool.go) on or off
// and returns the previous setting.
func PoisonOnPut(on bool) bool {
	prev := poisonOnPut
	poisonOnPut = on
	return prev
}
