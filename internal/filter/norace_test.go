//go:build !race

package filter

// raceEnabled reports a build with the race detector.
const raceEnabled = false
