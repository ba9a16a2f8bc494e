//go:build race

package obstest

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
