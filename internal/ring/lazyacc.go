package ring

import (
	"fmt"

	"cinnamon/internal/parallel"
	"cinnamon/internal/rns"
)

// LazyAcc is a per-coefficient 128-bit accumulator over a basis: the fused
// inner-product state of the hybrid keyswitch. Instead of one Barrett
// reduction and one modular add per digit per coefficient (MulCoeffs into a
// temporary, then Add), each digit contributes an unreduced 128-bit
// multiply-accumulate and a single Barrett reduction per coefficient
// finishes the whole sum.
//
// Overflow budget: with both factors canonical (< q) the accumulator after
// d products is below d·q² — no 128-bit wraparound as long as d·q² < 2^128,
// and the high word stays below q (the precondition of ReduceWide) as long
// as d·q < 2^64 (rns.MaxLazyAdds). MulAcc tracks the latter, stronger
// bound; for 61-bit moduli it still allows 8 products between reductions,
// and for the ≤58-bit chain moduli CKKS parameter sets use, 64+ — above any
// real digit count. When a long accumulation (e.g. a batched rotate-and-sum
// over many keys) does exhaust the budget, MulAcc folds the accumulator in
// place first: one early reduction brings the running value back below q,
// which costs one Barrett pass but keeps correctness unconditional.
type LazyAcc struct {
	r       *Ring
	basis   rns.Basis
	hi, lo  [][]uint64
	adds    int
	maxAdds int
}

// GetLazyAcc returns a zeroed accumulator over basis b, drawing both limb
// storage and the accumulator struct from the ring's buffer pools. Release
// it with Release; a warm Get/Release cycle allocates nothing.
func (r *Ring) GetLazyAcc(b rns.Basis) *LazyAcc {
	maxAdds := 0
	for _, q := range b.Moduli {
		if d := rns.MaxLazyAdds(q); maxAdds == 0 || d < maxAdds {
			maxAdds = d
		}
	}
	var a *LazyAcc
	if v := r.accPool.Get(); v != nil {
		a = v.(*LazyAcc)
	} else {
		a = &LazyAcc{}
	}
	a.r, a.basis, a.adds, a.maxAdds = r, b, 0, maxAdds
	l := b.Len()
	if cap(a.hi) >= l {
		a.hi, a.lo = a.hi[:l], a.lo[:l]
	} else {
		a.hi = make([][]uint64, l)
		a.lo = make([][]uint64, l)
	}
	for j := 0; j < l; j++ {
		a.hi[j] = r.getLimb()
		a.lo[j] = r.getLimb()
	}
	return a
}

// covers reports whether p can be read over the accumulator's basis: p's
// basis is that basis or extends it, so limb j of p holds residues mod the
// accumulator's modulus j. A ciphertext above the accumulator's level is
// read through its limb prefix; nothing is copied.
func (a *LazyAcc) covers(p *Poly) bool {
	if len(p.Basis.Moduli) < len(a.basis.Moduli) {
		return false
	}
	for j, q := range a.basis.Moduli {
		if p.Basis.Moduli[j] != q {
			return false
		}
	}
	return true
}

// MulAcc accumulates x ⊙ y (the pointwise product) into the accumulator.
// Both polynomials must be in the NTT domain with canonical (< q)
// coefficients, over the accumulator's basis or one it prefixes (the limbs
// beyond the accumulator's are ignored).
func (a *LazyAcc) MulAcc(x, y *Poly) error {
	if !a.covers(x) || !a.covers(y) {
		return fmt.Errorf("ring: MulAcc basis mismatch")
	}
	if !x.IsNTT || !y.IsNTT {
		return fmt.Errorf("ring: MulAcc requires NTT domain")
	}
	a.chargeProducts(1)
	l := a.basis.Len()
	if parallel.Workers() > 1 && parallel.WorthFanout(l, a.r.N, parallel.CostMul) {
		parallel.For(l, func(j int) { a.mulAccLimb(j, x.Limbs[j], y.Limbs[j]) })
		return nil
	}
	for j := 0; j < l; j++ {
		a.mulAccLimb(j, x.Limbs[j], y.Limbs[j])
	}
	return nil
}

func (a *LazyAcc) mulAccLimb(j int, xj, yj []uint64) {
	hij := a.hi[j][:len(xj)]
	loj := a.lo[j][:len(xj)]
	yj = yj[:len(xj)]
	for i := range xj {
		hij[i], loj[i] = rns.MulAccLazy(hij[i], loj[i], xj[i], yj[i])
	}
}

// MulScalarAcc accumulates v·x, v a signed integer reduced into each
// modulus — the product of x with the NTT image of the constant polynomial
// v, which is v mod q in every cell. x is read like MulAcc's operands, in
// either domain.
func (a *LazyAcc) MulScalarAcc(x *Poly, v int64) error {
	if !a.covers(x) {
		return fmt.Errorf("ring: MulScalarAcc basis mismatch")
	}
	a.chargeProducts(1)
	l := a.basis.Len()
	if parallel.Workers() > 1 && parallel.WorthFanout(l, a.r.N, parallel.CostMul) {
		parallel.For(l, func(j int) { a.mulScalarAccLimb(j, x.Limbs[j], v) })
		return nil
	}
	for j := 0; j < l; j++ {
		a.mulScalarAccLimb(j, x.Limbs[j], v)
	}
	return nil
}

func (a *LazyAcc) mulScalarAccLimb(j int, xj []uint64, v int64) {
	q := a.basis.Moduli[j]
	var w uint64
	if v >= 0 {
		w = uint64(v) % q
	} else if rem := (-uint64(v)) % q; rem != 0 {
		w = q - rem
	}
	hij := a.hi[j][:len(xj)]
	loj := a.lo[j][:len(xj)]
	for i := range xj {
		hij[i], loj[i] = rns.MulAccLazy(hij[i], loj[i], xj[i], w)
	}
}

// fold reduces the accumulator in place: each 128-bit cell collapses to its
// canonical value (< q) in the low word. The folded value is smaller than
// any single product, so the budget counter restarts at one.
func (a *LazyAcc) fold() {
	l := a.basis.Len()
	if parallel.Workers() > 1 && parallel.WorthFanout(l, a.r.N, parallel.CostMul) {
		parallel.For(l, func(j int) { a.foldLimb(j) })
	} else {
		for j := 0; j < l; j++ {
			a.foldLimb(j)
		}
	}
	a.adds = 1
}

func (a *LazyAcc) foldLimb(j int) {
	bp := a.r.Barrett(a.basis.Moduli[j])
	hij, loj := a.hi[j], a.lo[j]
	for i := range loj {
		loj[i] = bp.ReduceWide(hij[i], loj[i])
		hij[i] = 0
	}
}

// chargeProducts books w canonical-product units. Kernels that accumulate
// lazy left factors (ntt.ForwardMulAccPair: x < 4q) weigh each product at
// ntt.LazyMulAccWeight units, since the product can reach 4q·q. Folds first
// when the budget would be exceeded; the folded value (< q) plus the
// incoming products stay within the restarted budget.
func (a *LazyAcc) chargeProducts(w int) {
	if a.adds+w > a.maxAdds {
		a.fold()
	}
	a.adds += w
}

// ReduceInto Barrett-reduces the accumulator into out — one wide reduction
// per coefficient, regardless of how many products were accumulated — and
// marks out as NTT-domain over the accumulator's basis. The accumulator
// remains valid (and keeps accumulating) afterwards.
func (a *LazyAcc) ReduceInto(out *Poly) {
	r := a.r
	out.Basis, out.IsNTT = a.basis, true
	r.ensureShape(out, a.basis.Len())
	l := a.basis.Len()
	if parallel.Workers() > 1 && parallel.WorthFanout(l, r.N, parallel.CostMul) {
		parallel.For(l, func(j int) { a.reduceLimb(j, out.Limbs[j]) })
		return
	}
	for j := 0; j < l; j++ {
		a.reduceLimb(j, out.Limbs[j])
	}
}

func (a *LazyAcc) reduceLimb(j int, oj []uint64) {
	bp := a.r.Barrett(a.basis.Moduli[j])
	hij, loj := a.hi[j], a.lo[j]
	for i := range oj {
		oj[i] = bp.ReduceWide(hij[i], loj[i])
	}
}

// Release returns the accumulator's limb storage and the struct itself to
// the ring's pools. The accumulator must not be used afterwards. Safe on
// nil.
func (a *LazyAcc) Release() {
	if a == nil {
		return
	}
	r := a.r
	for j := range a.hi {
		r.putLimb(a.hi[j])
		r.putLimb(a.lo[j])
		a.hi[j], a.lo[j] = nil, nil
	}
	a.hi, a.lo = a.hi[:0], a.lo[:0]
	a.r, a.basis, a.adds, a.maxAdds = nil, rns.Basis{}, 0, 0
	r.accPool.Put(a)
}
