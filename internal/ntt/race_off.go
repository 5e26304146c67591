//go:build !race

package ntt

const raceEnabled = false
