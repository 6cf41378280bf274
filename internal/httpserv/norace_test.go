//go:build !race

package httpserv

// raceEnabled: the race detector is off, and exact allocation counts hold.
const raceEnabled = false
