//go:build !race

package deduce_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
