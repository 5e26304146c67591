package ring

import (
	"fmt"

	"cinnamon/internal/ntt"
	"cinnamon/internal/parallel"
	"cinnamon/internal/rns"
)

// ModDownPlan freezes everything ModDown otherwise resolves per call for a
// fixed (working basis, extension basis) pair: the base converter, the
// P^{-1} mod q_j combine constants, the scratch shapes, and (on rings with
// NTT tables) the batch plans of the NTT-domain variant. Registry compile
// time builds one per level; the serving steady state then does no cache
// probes, no big-integer work and no allocation per mod-down.
type ModDownPlan struct {
	s, ext rns.Basis
	bc     *rns.BaseConverter
	consts []shoupScalar
	// extPlan/sPlan serve ModDownNTTWith: inverse transforms of the
	// extension limbs and fused forward+combine over the working limbs.
	// Nil on table-free (lazy) rings, where only the coefficient-domain
	// path is available.
	extPlan *ntt.BatchPlan
	sPlan   *ntt.BatchPlan
	// extZ[k] is the scaled last-stage pair (wx, wxs, wy, wys) folding the
	// base conversion's z-stage scalar (P/p_k)⁻¹ into extension limb k's
	// inverse transform (ntt.ScaledLastPair).
	extZ [][4]uint64
}

// NewModDownPlan precomputes the mod-down from s ∪ ext back to s.
func (r *Ring) NewModDownPlan(s, ext rns.Basis) (*ModDownPlan, error) {
	bc, err := converter(ext, s)
	if err != nil {
		return nil, err
	}
	consts, err := modDownConstants(ext, s)
	if err != nil {
		return nil, err
	}
	mp := &ModDownPlan{s: s, ext: ext, bc: bc, consts: consts}
	if r.Plan() != nil {
		if mp.extPlan, err = r.PlanForBasis(ext); err != nil {
			return nil, err
		}
		if mp.sPlan, err = r.PlanForBasis(s); err != nil {
			return nil, err
		}
		mp.extZ = make([][4]uint64, ext.Len())
		for k := range mp.extZ {
			wx, wxs, wy, wys := mp.extPlan.Table(k).ScaledLastPair(bc.QHatInv(k))
			mp.extZ[k] = [4]uint64{wx, wxs, wy, wys}
		}
	}
	return mp, nil
}

// S returns the plan's working (output) basis.
func (mp *ModDownPlan) S() rns.Basis { return mp.s }

// checkBasis rejects p unless its basis is s ∪ ext in that order: a poly
// with the right limb count over other moduli would otherwise be divided
// with the wrong constants and no error.
func (mp *ModDownPlan) checkBasis(op string, p *Poly) error {
	sLen := mp.s.Len()
	b := p.Basis
	if b.Len() != sLen+mp.ext.Len() ||
		!mp.s.Equal(rns.Basis{Moduli: b.Moduli[:sLen]}) ||
		!mp.ext.Equal(rns.Basis{Moduli: b.Moduli[sLen:]}) {
		return fmt.Errorf("ring: %s on %v, plan wants %v then %v", op, b, mp.s, mp.ext)
	}
	return nil
}

// ModDownWith is ModDown through a precompiled plan: p (coefficient
// domain, basis s ∪ ext in that order) is divided by P = Π ext and rounded
// down to basis s. The returned polynomial and all scratch come from the
// ring's pools; a warm call allocates nothing.
func (r *Ring) ModDownWith(mp *ModDownPlan, p *Poly) (*Poly, error) {
	if p.IsNTT {
		return nil, fmt.Errorf("ring: ModDownWith requires coefficient domain")
	}
	if err := mp.checkBasis("ModDownWith", p); err != nil {
		return nil, err
	}
	sLen := mp.s.Len()
	z := r.getPolyUninit(mp.ext)
	conv := r.getPolyUninit(mp.s)
	if err := mp.bc.ConvertInto(p.Limbs[sLen:], z.Limbs, conv.Limbs); err != nil {
		r.PutPoly(z)
		r.PutPoly(conv)
		return nil, err
	}
	out := r.getPolyUninit(mp.s)
	if parallel.Workers() > 1 && parallel.WorthFanout(sLen, r.N, parallel.CostMul) {
		parallel.For(sLen, func(j int) {
			modDownLimb(mp.s.Moduli[j], mp.consts[j], p.Limbs[j], conv.Limbs[j], out.Limbs[j])
		})
	} else {
		for j := 0; j < sLen; j++ {
			modDownLimb(mp.s.Moduli[j], mp.consts[j], p.Limbs[j], conv.Limbs[j], out.Limbs[j])
		}
	}
	r.PutPoly(z)
	r.PutPoly(conv)
	return out, nil
}

// modDownLimb computes out = (a - conv) · P^{-1} mod q for one limb.
func modDownLimb(q uint64, c shoupScalar, aj, cj, oj []uint64) {
	for i := range aj {
		oj[i] = rns.MulModShoup(rns.SubMod(aj[i], cj[i], q), c.w, c.ws, q)
	}
}

// ModDownNTTWith is the NTT-domain mod-down (DESIGN.md §12): p, NTT-domain
// over s ∪ ext, is divided by P = Π ext and rounded down to basis s with
// the output still in the NTT domain. Only the ext.Len() extension limbs
// are inverse-transformed (into pooled scratch; p is unchanged); the base
// conversion runs in the coefficient domain, and each converted limb's
// forward transform is fused with the pointwise combine
// (src − NTT(conv)) · P⁻¹ through ntt.ForwardSubMul. Because the NTT is
// linear mod q and every output passes through a canonical reduction, the
// result is bit-identical to INTT → ModDownWith → NTT — minus
// 2·s.Len() transforms and one combine pass.
func (r *Ring) ModDownNTTWith(mp *ModDownPlan, p *Poly) (*Poly, error) {
	if !p.IsNTT {
		return nil, fmt.Errorf("ring: ModDownNTTWith requires NTT domain")
	}
	if mp.extPlan == nil || mp.sPlan == nil {
		return nil, fmt.Errorf("ring: mod-down plan lacks NTT tables")
	}
	if err := mp.checkBasis("ModDownNTTWith", p); err != nil {
		return nil, err
	}
	sLen, eLen := mp.s.Len(), mp.ext.Len()
	// Scaled out-of-place inverse: each extension limb leaves the NTT
	// domain already multiplied by its z-stage scalar (P/p_k)⁻¹, so the
	// base conversion skips straight to its accumulate stage.
	z := r.getPolyUninit(mp.ext)
	for k := 0; k < eLen; k++ {
		zs := &mp.extZ[k]
		mp.extPlan.Table(k).InverseScaledFrom(p.Limbs[sLen+k], z.Limbs[k], zs[0], zs[1], zs[2], zs[3])
	}
	conv := r.getPolyUninit(mp.s)
	if err := mp.bc.AccumulateInto(z.Limbs, conv.Limbs); err != nil {
		r.PutPoly(z)
		r.PutPoly(conv)
		return nil, err
	}
	r.PutPoly(z)
	out := r.getPolyUninit(mp.s)
	out.IsNTT = true
	if parallel.Workers() > 1 && parallel.WorthFanout(sLen, r.N, parallel.CostNTT) {
		parallel.For(sLen, func(j int) {
			c := mp.consts[j]
			mp.sPlan.Table(j).ForwardSubMul(conv.Limbs[j], p.Limbs[j], out.Limbs[j], c.w, c.ws)
		})
	} else {
		for j := 0; j < sLen; j++ {
			c := mp.consts[j]
			mp.sPlan.Table(j).ForwardSubMul(conv.Limbs[j], p.Limbs[j], out.Limbs[j], c.w, c.ws)
		}
	}
	r.PutPoly(conv)
	return out, nil
}
