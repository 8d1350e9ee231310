//go:build !race

package stats

// raceEnabled reports whether the race detector instruments this test
// binary (timing bounds are skipped under it: instrumentation skews
// the shapes unevenly).
const raceEnabled = false
