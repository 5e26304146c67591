package ring

import (
	"fmt"

	"cinnamon/internal/ntt"
)

// The ring-level fused keyswitch kernel (DESIGN.md §12; the NTT-domain
// mod-down, ModDownNTTWith, is in plans.go). It pairs the forward
// transform's last stage with the inner-product multiply-accumulate that
// always follows it, so the transformed limb never reaches memory, and it
// is bit-identical to the unfused composition.

// AbsorbDigitFused accumulates evk_d ⊙ NTT(modup_d) into the accumulator
// pair (a0, a1) — the whole per-digit body of the hybrid keyswitch inner
// product in one pass. For each limb u of the accumulators' basis:
//
//   - own[u] ≥ 0 marks a limb the digit owns: the mod-up value there is the
//     digit's residue itself, so src[own[u]] (already NTT-domain —
//     NTT∘INTT is bit-exact, no transform needed) multiply-accumulates
//     directly against b0/b1;
//   - own[u] < 0 marks a complementary limb: the next limb of conv (the
//     base-conversion output, coefficient domain) runs the fused
//     forward-transform-and-accumulate kernel, so its NTT image never hits
//     memory. conv limbs are consumed.
//
// pl must cover the accumulator basis; b0/b1 are the evaluation-key halves
// over that basis, NTT-domain canonical. Each call books
// ntt.LazyMulAccWeight product units per cell against both accumulators'
// overflow budgets — the fused forward kernel accumulates lazy (< 4q)
// transform values, whose products are up to 4× a canonical product.
func (r *Ring) AbsorbDigitFused(pl *ntt.BatchPlan, a0, a1 *LazyAcc, own []int, src, conv [][]uint64, b0, b1 *Poly) error {
	m := a0.basis.Len()
	if len(own) != m || len(b0.Limbs) != m || len(b1.Limbs) != m || pl.Limbs() < m {
		return fmt.Errorf("ring: AbsorbDigitFused shape mismatch")
	}
	if !a1.basis.Equal(a0.basis) {
		return fmt.Errorf("ring: AbsorbDigitFused accumulator basis mismatch")
	}
	a0.chargeProducts(ntt.LazyMulAccWeight)
	a1.chargeProducts(ntt.LazyMulAccWeight)
	k := 0 // next conv limb: own and conv never overlap
	for u, j := range own {
		h0, l0 := a0.hi[u], a0.lo[u]
		h1, l1 := a1.hi[u], a1.lo[u]
		if j >= 0 {
			ntt.MulAccWide(h0, l0, src[j], b0.Limbs[u])
			ntt.MulAccWide(h1, l1, src[j], b1.Limbs[u])
			continue
		}
		pl.Table(u).ForwardMulAccPair(conv[k], b0.Limbs[u], b1.Limbs[u], h0, l0, h1, l1)
		k++
	}
	return nil
}
