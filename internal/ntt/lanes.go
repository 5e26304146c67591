package ntt

import "cinnamon/internal/rns"

// Element-wise lane kernels of the ring layer: the keyswitch inner
// product's wide accumulator (ring.LazyAcc), the base conversion's
// accumulate stage (ring.BaseConverter), the limb × constant multiply, the
// pointwise product and the modular add and subtract. They are not
// transforms, but they are the same lane-wise 64-bit integer arithmetic as
// the fused last stages, and this package is the one place that chooses
// between the Go loops and the AVX-512 bodies. Each vector body computes
// its Go loop's integer function lane for lane; a length that is not a
// positive multiple of 8 runs the Go loop.

// vecLanes reports whether n lanes run on the vector body.
func vecLanes(n int) bool { return useAVX512 && n >= 8 && n%8 == 0 }

// MulAccWide adds the 128-bit product x[i]·y[i] into the accumulator
// (hi[i], lo[i]) for every i < len(x) (rns.MulAccLazy).
func MulAccWide(hi, lo, x, y []uint64) {
	hi, lo, y = hi[:len(x)], lo[:len(x)], y[:len(x)]
	if vecLanes(len(x)) {
		mulAccWideVec(hi, lo, x, y)
		return
	}
	for i := range x {
		hi[i], lo[i] = rns.MulAccLazy(hi[i], lo[i], x[i], y[i])
	}
}

// MulAccWideScalar adds the 128-bit product x[i]·w into the accumulator
// (hi[i], lo[i]) for every i < len(x): MulAccWide with one broadcast
// operand.
func MulAccWideScalar(hi, lo, x []uint64, w uint64) {
	hi, lo = hi[:len(x)], lo[:len(x)]
	if vecLanes(len(x)) {
		mulAccWideScalarVec(hi, lo, x, w)
		return
	}
	for i := range x {
		hi[i], lo[i] = rns.MulAccLazy(hi[i], lo[i], x[i], w)
	}
}

// ReduceWide sets out[i] to the canonical residue of the 128-bit value
// (hi[i], lo[i]) for every i < len(out) (rns.BarrettParams.ReduceWide,
// which needs hi[i] < q). out may alias lo.
func ReduceWide(out, hi, lo []uint64, bp rns.BarrettParams) {
	hi, lo = hi[:len(out)], lo[:len(out)]
	if vecLanes(len(out)) {
		reduceWideVec(out, hi, lo, bp.Q, bp.Hi, bp.Lo)
		return
	}
	for i := range out {
		out[i] = bp.ReduceWide(hi[i], lo[i])
	}
}

// MulBarrett sets out[i] = a[i]·b[i] mod q for every i < len(out)
// (rns.BarrettParams.MulMod, which needs b[i] < q): the pointwise product
// of two NTT-domain limbs. out may alias a or b.
func MulBarrett(out, a, b []uint64, bp rns.BarrettParams) {
	a, b = a[:len(out)], b[:len(out)]
	if vecLanes(len(out)) {
		mulBarrettVec(out, a, b, bp.Q, bp.Hi, bp.Lo)
		return
	}
	for i := range out {
		out[i] = bp.MulMod(a[i], b[i])
	}
}

// MulShoup sets out[i] = x[i]·w mod q for every i < len(out), with
// ws = rns.ShoupPrecomp(w, q) (rns.MulModShoup: q < 2^63, w < q, x[i] any
// word). out may alias x.
func MulShoup(out, x []uint64, w, ws, q uint64) {
	x = x[:len(out)]
	if vecLanes(len(out)) {
		mulShoupVec(out, x, w, ws, q)
		return
	}
	for i := range out {
		out[i] = rns.MulModShoup(x[i], w, ws, q)
	}
}

// AddMod sets out[i] = a[i] + b[i] mod q for every i < len(out)
// (rns.AddMod: a[i], b[i] < q). The vector body is a lane add and a
// VPMINUQ against the sum less q, which needs the sum not to carry out of
// 64 bits: it runs for q < 2^63 only. out may alias a or b.
func AddMod(out, a, b []uint64, q uint64) {
	a, b = a[:len(out)], b[:len(out)]
	if vecLanes(len(out)) && q < 1<<63 {
		addModVec(out, a, b, q)
		return
	}
	for i := range out {
		out[i] = rns.AddMod(a[i], b[i], q)
	}
}

// SubMod sets out[i] = a[i] − b[i] mod q for every i < len(out)
// (rns.SubMod: a[i], b[i] < q). out may alias a or b.
func SubMod(out, a, b []uint64, q uint64) {
	a, b = a[:len(out)], b[:len(out)]
	if vecLanes(len(out)) {
		subModVec(out, a, b, q)
		return
	}
	for i := range out {
		out[i] = rns.SubMod(a[i], b[i], q)
	}
}

// ConvAccumulate sets acc to one target limb of the fast base conversion
// (ring.BaseConverter): acc[i] = Σ_j z[j][i]·f[j] mod p, canonical, for
// every i < len(acc), where p = bp.Q, f[j] = (Q/q_j) mod p and fs[j] is
// its Shoup companion. z holds at least one source limb; its words may be
// any uint64 (residues of source moduli larger than p), so every product
// is a Shoup product, exact for any left factor. acc needs no zeroing: the
// first source stores.
//
// The one-limb source (a rescale) is a plain Shoup product. Below 2^62 the
// two-limb source (a mod-up digit or the P mod-down under two special
// moduli) keeps both products lazy (< 2p each), and two conditional
// subtractions, of 2p and then p, make the sum canonical. These two
// shapes are the ones serving runs, and they have vector bodies; a source
// of three or more limbs runs the Go loop, a modular add per source. All
// give the unique canonical residue. A target at or above 2^62 (never
// produced by rns.GenerateNTTPrimes) runs a Barrett loop.
func ConvAccumulate(acc []uint64, z [][]uint64, f, fs []uint64, bp rns.BarrettParams) {
	p := bp.Q
	f, fs = f[:len(z)], fs[:len(z)]
	if vecLanes(len(acc)) && (len(z) == 1 || len(z) == 2) && p < 1<<62 {
		convAccVec(acc, z, f, fs, p)
		return
	}
	if p >= 1<<62 {
		for j, zj := range z {
			zj = zj[:len(acc)]
			if j == 0 {
				for i := range acc {
					acc[i] = bp.MulMod(zj[i], f[j])
				}
				continue
			}
			for i := range acc {
				acc[i] = rns.AddMod(acc[i], bp.MulMod(zj[i], f[j]), p)
			}
		}
		return
	}
	if len(z) == 2 {
		twoP := 2 * p
		f0, fs0, f1, fs1 := f[0], fs[0], f[1], fs[1]
		z0, z1 := z[0][:len(acc)], z[1][:len(acc)]
		for i := range acc {
			s := rns.MulModShoupLazy(z0[i], f0, fs0, p) + rns.MulModShoupLazy(z1[i], f1, fs1, p)
			acc[i] = rns.ReduceOnce(rns.Reduce2Q(s, twoP), p)
		}
		return
	}
	for j, zj := range z {
		zj = zj[:len(acc)]
		if j == 0 {
			for i := range acc {
				acc[i] = rns.MulModShoup(zj[i], f[j], fs[j], p)
			}
			continue
		}
		for i := range acc {
			acc[i] = rns.AddMod(acc[i], rns.MulModShoup(zj[i], f[j], fs[j], p), p)
		}
	}
}
