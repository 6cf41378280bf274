//go:build !race

package rootio

// raceBudget picks an alloc budget: the first without the race detector.
func raceBudget(plain, _ float64) float64 { return plain }
