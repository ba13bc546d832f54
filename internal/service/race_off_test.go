//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
