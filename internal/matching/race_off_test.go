//go:build !race

package matching

const raceEnabled = false
