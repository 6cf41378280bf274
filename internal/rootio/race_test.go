//go:build race

package rootio

// raceBudget picks an alloc budget: the second under the race detector.
func raceBudget(_, race float64) float64 { return race }
