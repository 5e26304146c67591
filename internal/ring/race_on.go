//go:build race

package ring

// poisonReleased is on in race builds: every limb PutPoly (or a LazyAcc's
// Release) returns to the pool is filled with poisonWord first, so a read
// of a released value breaks the bit-exact tests instead of silently
// reading whatever the pool's next owner wrote.
const poisonReleased = true
