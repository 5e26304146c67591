// Package rns implements the Residue Number System substrate used by the
// CKKS layer: scalar modular arithmetic over machine-word primes,
// NTT-friendly prime generation and RNS bases.
//
// Ciphertext polynomials in CKKS have coefficients modulo a product of many
// word-sized primes. Each residue polynomial is a "limb" (paper §2); this
// package provides the per-word arithmetic everything else is built on. It
// holds no limb loop: internal/ntt runs these operations over whole limbs
// (with a vector body where the CPU has one), and the fast base conversion
// lives in internal/ring.
package rns

import "math/bits"

// AddMod returns (a + b) mod q. It requires a, b < q; q may be any modulus
// below 2^64. It is branch-free because a compare-and-branch mispredicts
// on random residues: d = a + b − q is kept unless the sum neither carried
// out of 64 bits nor reached q, in which case q is added back.
func AddMod(a, b, q uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	d, borrow := bits.Sub64(s, q, 0)
	return d + q&-(borrow&^carry)
}

// SubMod returns (a - b) mod q. It requires a, b < q; q may be any modulus
// below 2^64. Branch-free: q is added back exactly when a − b borrows.
func SubMod(a, b, q uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	return d + q&-borrow
}

// NegMod returns (-a) mod q. It requires a < q.
func NegMod(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}

// MulMod returns (a * b) mod q using a full 128-bit intermediate product.
// It requires a, b < q.
func MulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, q)
	return rem
}

// PowMod returns a^e mod q by square-and-multiply. It requires a < q and
// q > 1.
func PowMod(a, e, q uint64) uint64 {
	r := uint64(1) % q
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = MulMod(r, a, q)
		}
		a = MulMod(a, a, q)
	}
	return r
}

// InvMod returns the multiplicative inverse of a modulo the prime q using
// Fermat's little theorem. It requires 0 < a < q and q prime.
func InvMod(a, q uint64) uint64 {
	return PowMod(a, q-2, q)
}

// ShoupPrecomp returns the Shoup precomputation floor(w * 2^64 / q) for a
// fixed multiplicand w < q. Pair it with MulModShoup for fast repeated
// multiplication by w, as in NTT butterflies where w is a twiddle factor.
func ShoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q) // floor(w * 2^64 / q); requires w < q
	return quo
}

// MulModShoup returns (x * w) mod q where wShoup = ShoupPrecomp(w, q).
// It requires q < 2^63 and w < q; x may be ANY uint64 (not just x < q):
// with m = floor(x·wShoup/2^64) one shows m ∈ {Q-1, Q} for the true
// quotient Q = floor(x·w/q), so x·w − m·q ∈ [0, 2q) ⊂ [0, 2^64) and one
// conditional subtraction finishes the reduction. This makes Shoup the
// kernel of choice whenever the multiplicand is fixed across a limb, even
// for unreduced residues (e.g. base conversion across moduli).
func MulModShoup(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	r := x*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// MulModShoupLazy is MulModShoup without the final conditional subtraction:
// the result is congruent to x·w mod q but lies in [0, 2q) rather than
// [0, q). It requires q < 2^63 and w < q; x may be any uint64. Harvey-style
// lazy NTT butterflies use it so that only one reduction per butterfly (the
// conditional subtract-by-2q on the other operand) remains.
func MulModShoupLazy(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	return x*w - hi*q
}

// AddModLazy returns a + b reduced into [0, 2q) given a, b < 2q and
// twoQ = 2q < 2^63. It is the lazy-domain addition of the Harvey INTT
// butterfly: one conditional subtraction of 2q instead of a full reduction.
func AddModLazy(a, b, twoQ uint64) uint64 {
	s := a + b
	if s >= twoQ {
		s -= twoQ
	}
	return s
}

// Reduce2Q conditionally subtracts 2q once, mapping [0, 4q) into [0, 2q).
func Reduce2Q(a, twoQ uint64) uint64 {
	if a >= twoQ {
		a -= twoQ
	}
	return a
}

// ReduceOnce conditionally subtracts q once, mapping [0, 2q) into [0, q).
// The lazy NTT kernels call it in their final correction to return values
// to the canonical range.
func ReduceOnce(a, q uint64) uint64 {
	if a >= q {
		a -= q
	}
	return a
}

// MulAccLazy adds the 128-bit product a·b into the accumulator (hi, lo) and
// returns the updated pair. It is the kernel of the fused keyswitch inner
// product: per-digit products accumulate without any modular reduction, and
// a single Barrett reduction (BarrettParams.ReduceWide) finishes each
// coefficient. The accumulator cannot overflow as long as the number of
// accumulated products d satisfies d·a·b < 2^128; with both factors < q the
// stronger condition d·q < 2^64 (see MaxLazyAdds) also keeps the high word
// below q, which ReduceWide requires.
func MulAccLazy(hi, lo, a, b uint64) (uint64, uint64) {
	phi, plo := bits.Mul64(a, b)
	nlo, carry := bits.Add64(lo, plo, 0)
	return hi + phi + carry, nlo
}

// MaxLazyAdds returns the largest number of products a·b with a, b < q that
// can be accumulated by MulAccLazy while keeping the accumulator's high
// word below q (the ReduceWide precondition): d products sum below d·q²,
// whose high word is below d·q²/2^64 < q whenever d·q < 2^64.
func MaxLazyAdds(q uint64) int {
	d := (^uint64(0)) / q
	const limit = 1 << 20
	if d > limit {
		return limit
	}
	return int(d)
}

// BarrettConstant returns the two-word constant floor(2^128 / q) used by
// BarrettReduce.
func BarrettConstant(q uint64) (hi, lo uint64) {
	// 2^128 / q: divide (2^64-ish) in two steps.
	hi, r := bits.Div64(1, 0, q) // hi = floor(2^64 / q), r = 2^64 mod q
	lo, _ = bits.Div64(r, 0, q)  // lo = floor(r * 2^64 / q)
	return hi, lo
}

// BarrettParams caches the two-word Barrett constant floor(2^128/q) for a
// modulus, turning the division in MulMod into a handful of multiplies.
// This is the variable×variable modular-multiply kernel the pointwise hot
// loops use (MulModShoup still wins when one operand is fixed); the Ring
// precomputes one BarrettParams per universe modulus.
type BarrettParams struct {
	Q      uint64
	Hi, Lo uint64 // floor(2^128 / Q)
}

// NewBarrettParams precomputes the Barrett constant for q.
func NewBarrettParams(q uint64) BarrettParams {
	hi, lo := BarrettConstant(q)
	return BarrettParams{Q: q, Hi: hi, Lo: lo}
}

// MulMod returns (a * b) mod Q without a hardware division. It requires
// b < Q (a may be any uint64, e.g. an unreduced residue from a foreign
// modulus): the 128-bit product then has a high word below Q, satisfying
// BarrettReduce's precondition.
func (bp BarrettParams) MulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return BarrettReduce(hi, lo, bp.Hi, bp.Lo, bp.Q)
}

// Reduce returns x mod Q for any uint64 x.
func (bp BarrettParams) Reduce(x uint64) uint64 {
	return BarrettReduce(0, x, bp.Hi, bp.Lo, bp.Q)
}

// ReduceWide reduces the 128-bit value (hi, lo) modulo Q. It requires
// hi < Q; a MulAccLazy accumulator satisfies this as long as at most
// MaxLazyAdds(Q) products were folded in.
func (bp BarrettParams) ReduceWide(hi, lo uint64) uint64 {
	return BarrettReduce(hi, lo, bp.Hi, bp.Lo, bp.Q)
}

// BarrettReduce reduces the 128-bit value (xhi, xlo) modulo q given the
// Barrett constant (bhi, blo) = floor(2^128/q). It requires xhi < q.
func BarrettReduce(xhi, xlo, bhi, blo, q uint64) uint64 {
	// Quotient estimate m = floor(x*b / 2^128) where b = (bhi, blo). Since
	// xhi < q, the true quotient fits in 64 bits. The estimate is at most 2
	// below the true quotient, so x - m*q fits in 64 bits and at most two
	// subtractions of q correct the remainder.
	t0, _ := bits.Mul64(xlo, blo) // keep the high word only
	t1hi, t1lo := bits.Mul64(xhi, blo)
	t2hi, t2lo := bits.Mul64(xlo, bhi)
	sumLo, c0 := bits.Add64(t1lo, t2lo, 0)
	_, c1 := bits.Add64(sumLo, t0, 0)
	m := xhi*bhi + t1hi + t2hi + c0 + c1
	r := xlo - m*q
	// The estimate is short by at most 2, so two conditional subtractions
	// (compiled branch-free) finish the reduction.
	if r >= q {
		r -= q
	}
	if r >= q {
		r -= q
	}
	return r
}
