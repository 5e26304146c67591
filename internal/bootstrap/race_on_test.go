//go:build race

package bootstrap

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under it, since its instrumentation allocates.
const raceEnabled = true
