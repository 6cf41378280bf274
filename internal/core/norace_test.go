//go:build !race

package core

// raceBudget picks an alloc budget: the first without the race detector.
func raceBudget(plain, _ float64) float64 { return plain }

// raceBytes picks a bytes-per-call budget: b without the race detector.
func raceBytes(b uint64) uint64 { return b }
