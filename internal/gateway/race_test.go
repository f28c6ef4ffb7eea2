//go:build race

package gateway

// raceEnabled reports a build with the race detector.
const raceEnabled = true
