//go:build race

package ir_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation test skips under it.
const raceEnabled = true
