//go:build !race

package ir_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
