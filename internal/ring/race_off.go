//go:build !race

package ring

const poisonReleased = false
