//go:build race

package stats

// raceEnabled reports whether the race detector instruments this test
// binary.
const raceEnabled = true
