package keyswitch

// Per-chip keyswitch kernels: the units of work one chip performs during
// the paper's two scale-out collectives.
//
//   - Input broadcast (Fig. 8b) has no kernel here: a chip runs the
//     sequential keyswitch restricted to the limbs it owns plus the
//     duplicated P limbs, which is ckks.KSPlan compiled for those limbs
//     (ckks.Parameters.KSPlanFor). The in-process engine (collectives.go) and
//     every cluster worker (internal/cluster) run that one kernel, which is
//     what makes a distributed keyswitch bit-identical to the local one.
//   - ChipOA is the output-aggregation kernel (Fig. 8c): the chip's digit
//     set IS its limb partition, so it needs only its own limbs, computes
//     the full-width product locally, and hands back its mod-downed
//     partial sums for the aggregate-and-scatter.

import (
	"fmt"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// ChipOA runs one chip's share of an output-aggregation keyswitch (Fig.
// 8c). mineLimbs are the coefficient-domain limbs of the level-l input at
// the chain indices of the chip's digit set (OADigitSet order); the chip needs
// no other input, which is why Fig. 8c has no input broadcast. The
// returned polynomials are the chip's mod-downed partial sums over the
// full level basis, coefficient domain, ready for the cross-chip
// aggregation; both are pooled (release with PutPoly).
func (e *Engine) ChipOA(evk *ckks.EvalKey, chip, l int, mineLimbs [][]uint64) (down0, down1 *ring.Poly, err error) {
	params, r := e.Params, e.Params.Ring
	mine, err := OADigitSet(evk, e.NChips, chip, l)
	if err != nil {
		return nil, nil, err
	}
	if len(mine) == 0 {
		return nil, nil, nil
	}
	if len(mineLimbs) != len(mine) {
		return nil, nil, fmt.Errorf("keyswitch: chip %d digit set has %d limbs, got %d", chip, len(mine), len(mineLimbs))
	}
	levelBasis, err := params.BasisAtLevel(l)
	if err != nil {
		return nil, nil, err
	}
	union, err := levelBasis.Union(params.PBasis)
	if err != nil {
		return nil, nil, err
	}
	ext, err := e.scatteredDigitModUp(mine, mineLimbs, l+1, union)
	if err != nil {
		return nil, nil, err
	}
	defer r.PutPoly(ext)
	// One transform of the mod-upped digit feeds both output components.
	if err := r.NTT(ext); err != nil {
		return nil, nil, err
	}
	bD, err := r.Restrict(evk.B[chip], union)
	if err != nil {
		return nil, nil, err
	}
	aD, err := r.Restrict(evk.A[chip], union)
	if err != nil {
		return nil, nil, err
	}
	f0 := r.GetPoly(union)
	f1 := r.GetPoly(union)
	defer r.PutPoly(f0)
	defer r.PutPoly(f1)
	// A chip has exactly one digit under output aggregation, so its inner
	// product is a single pointwise multiply straight into the output — no
	// temporary, no add pass.
	if err := r.MulCoeffs(ext, bD, f0); err != nil {
		return nil, nil, err
	}
	if err := r.MulCoeffs(ext, aD, f1); err != nil {
		return nil, nil, err
	}
	// Local mod-down of the full product.
	for fi, f := range []*ring.Poly{f0, f1} {
		if err := r.INTT(f); err != nil {
			r.PutPoly(down0)
			return nil, nil, err
		}
		down, err := r.ModDown(f, params.PBasis)
		if err != nil {
			r.PutPoly(down0)
			return nil, nil, err
		}
		if fi == 0 {
			down0 = down
		} else {
			down1 = down
		}
	}
	return down0, down1, nil
}

// scatteredDigitModUp mod-ups the (possibly non-contiguous) digit given by
// chain indices mine — with limb data supplied directly — onto the full
// union basis of a level with qlLen chain limbs.
func (e *Engine) scatteredDigitModUp(mine []int, mineLimbs [][]uint64, qlLen int, union rns.Basis) (*ring.Poly, error) {
	r := e.Params.Ring
	digitMods := make([]uint64, len(mine))
	inDigit := map[int]int{}
	for k, j := range mine {
		digitMods[k] = e.Params.QBasis.Moduli[j]
		inDigit[j] = k
	}
	var convMods []uint64
	for j := 0; j < union.Len(); j++ {
		if _, ok := inDigit[j]; ok && j < qlLen {
			continue
		}
		convMods = append(convMods, union.Moduli[j])
	}
	bc, err := ring.ConverterFor(rns.Basis{Moduli: digitMods}, rns.Basis{Moduli: convMods})
	if err != nil {
		return nil, err
	}
	conv, err := bc.Convert(mineLimbs)
	if err != nil {
		return nil, err
	}
	out := r.GetPoly(union)
	ci := 0
	for j := 0; j < union.Len(); j++ {
		if k, ok := inDigit[j]; ok && j < qlLen {
			copy(out.Limbs[j], mineLimbs[k])
		} else {
			copy(out.Limbs[j], conv[ci])
			ci++
		}
	}
	return out, nil
}
