//go:build race

package storage

// raceEnabled: the race detector is on, and sync.Pool drops what it is
// given at random, so an exact allocation count does not hold.
const raceEnabled = true
