//go:build race

package core

// raceBudget picks an alloc budget: the second under the race detector.
func raceBudget(_, race float64) float64 { return race }

// raceBytes picks a bytes-per-call budget: 4 KiB under the race detector,
// where a dropped pooled writer alone costs that.
func raceBytes(uint64) uint64 { return 4 << 10 }
