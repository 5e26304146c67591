//go:build !race

package bootstrap

const raceEnabled = false
