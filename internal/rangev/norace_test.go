//go:build !race

package rangev

// raceEnabled: the race detector is off, and exact allocation counts hold.
const raceEnabled = false
