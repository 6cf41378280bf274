//go:build race

package httpserv

// raceEnabled: the race detector is on, and sync.Pool drops what it is
// given at random, so an exact allocation count does not hold.
const raceEnabled = true
