//go:build race

package foces_test

// raceEnabled reports whether the race detector instruments this test
// binary.
const raceEnabled = true
