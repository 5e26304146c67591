//go:build race

package serve

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under it, since its instrumentation allocates.
const raceEnabled = true
