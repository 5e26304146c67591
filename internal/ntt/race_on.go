//go:build race

package ntt

// raceEnabled reports whether the race detector is built in. It does not
// see loads and stores made in assembly, so such a build runs the Go loops
// (see useAVX512).
const raceEnabled = true
