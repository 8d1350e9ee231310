//go:build !race

package foces_test

// raceEnabled reports whether the race detector instruments this test
// binary (timing bounds are skipped under it: instrumentation skews
// the windows unevenly).
const raceEnabled = false
