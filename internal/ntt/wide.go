package ntt

import "cinnamon/internal/rns"

// Wide-accumulator kernels of the keyswitch inner product (ring.LazyAcc).
// They are not transforms, but they are the same lane-wise 64-bit integer
// arithmetic as the fused last stages, and this package is the one place
// that chooses between the Go loops and the AVX-512 bodies.

// MulAccWide adds the 128-bit product x[i]·y[i] into the accumulator
// (hi[i], lo[i]) for every i < len(x) (rns.MulAccLazy).
func MulAccWide(hi, lo, x, y []uint64) {
	hi, lo, y = hi[:len(x)], lo[:len(x)], y[:len(x)]
	if useAVX512 && len(x) >= 8 && len(x)%8 == 0 {
		mulAccWideVec(hi, lo, x, y)
		return
	}
	for i := range x {
		hi[i], lo[i] = rns.MulAccLazy(hi[i], lo[i], x[i], y[i])
	}
}

// ReduceWide sets out[i] to the canonical residue of the 128-bit value
// (hi[i], lo[i]) for every i < len(out) (rns.BarrettParams.ReduceWide,
// which needs hi[i] < q). out may alias lo.
func ReduceWide(out, hi, lo []uint64, bp rns.BarrettParams) {
	hi, lo = hi[:len(out)], lo[:len(out)]
	if useAVX512 && len(out) >= 8 && len(out)%8 == 0 {
		reduceWideVec(out, hi, lo, bp.Q, bp.Hi, bp.Lo)
		return
	}
	for i := range out {
		out[i] = bp.ReduceWide(hi[i], lo[i])
	}
}
