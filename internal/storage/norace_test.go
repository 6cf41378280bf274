//go:build !race

package storage

// raceEnabled: the race detector is off, and exact allocation counts hold.
const raceEnabled = false
