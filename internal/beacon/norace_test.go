//go:build !race

package beacon_test

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
