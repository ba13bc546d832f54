//go:build race

package matching

// raceEnabled reports a race-detector build, under which the exhaustive
// reference DPs run on fewer sizes.
const raceEnabled = true
