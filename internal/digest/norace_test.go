//go:build !race

package digest

// raceEnabled: the race detector is off, and exact allocation counts hold.
const raceEnabled = false
