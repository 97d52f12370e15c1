//go:build !race

package core_test

// raceEnabled reports a -race build, under which the lockstep beaconing
// runs several times slower.
const raceEnabled = false
