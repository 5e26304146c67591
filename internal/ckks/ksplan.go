package ckks

import (
	"fmt"

	"cinnamon/internal/ntt"
	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// KSPlan is the precompiled per-level keyswitch schedule (DESIGN.md §12):
// every quantity the hybrid keyswitch otherwise derives per call — digit
// ranges, complement bases, base converters, batch NTT plans, the mod-down
// plan and the evaluation-key limb indices — frozen at compile time — plus
// the level's rescale plan. The serving registry builds plans for all
// levels once; a warm planned keyswitch then performs zero setup work and
// zero heap allocations, and a warm rescale allocates only its Ciphertext.
type KSPlan struct {
	level  int
	sBasis rns.Basis // chain prefix Q_l
	union  rns.Basis // Q_l ∪ P
	evkIdx []int     // universe limb positions of the union moduli
	digits []ksDigit
	// zscale[j] is the scaled last-stage pair (wx, wxs, wy, wys) that makes
	// chain limb j's inverse transform emit its owning digit's
	// base-conversion z-value directly (ntt.ScaledLastPair with
	// s = (Q_d/q_j)⁻¹ mod q_j): the decompose needs no input copy, no
	// separate INTT pass and no z-stage multiply.
	zscale [][4]uint64

	nttS    *ntt.BatchPlan // batch plan covering Q_l (universe-aligned prefix)
	nttU    *ntt.BatchPlan // batch plan over the union basis
	modDown *ring.ModDownPlan
	// rescale is the level's one-limb mod-down Q_{l−1} ∪ {q_l} → Q_{l−1}
	// (Evaluator.Rescale); nil at level 0.
	rescale *ring.ModDownPlan
}

// ksDigit is one digit's frozen decomposition state.
type ksDigit struct {
	lo, hi int       // chain-index interval [lo, hi)
	digit  rns.Basis // the digit's own moduli
	comp   rns.Basis // union \ digit, in union order
	bc     *rns.BaseConverter
	// own[u] ≥ 0 marks union limb u as the digit's own chain limb (value
	// taken from the input directly); own[u] < 0 marks a base-converted
	// complement limb.
	own []int
}

// Level returns the ciphertext level the plan serves.
func (pl *KSPlan) Level() int { return pl.level }

// newKSPlan compiles the keyswitch plan for level l.
func (p *Parameters) newKSPlan(l int) (*KSPlan, error) {
	r := p.Ring
	if r.Plan() == nil {
		return nil, fmt.Errorf("ckks: ring has no NTT tables (lazy parameters)")
	}
	sBasis, err := p.BasisAtLevel(l)
	if err != nil {
		return nil, err
	}
	union, err := sBasis.Union(p.PBasis)
	if err != nil {
		return nil, err
	}
	evkIdx := make([]int, union.Len())
	for u, q := range union.Moduli {
		j, ok := r.UniverseIndex(q)
		if !ok {
			return nil, fmt.Errorf("ckks: union modulus %d outside universe", q)
		}
		evkIdx[u] = j
	}
	nttU, err := r.PlanForBasis(union)
	if err != nil {
		return nil, err
	}
	md, err := r.NewModDownPlan(sBasis, p.PBasis)
	if err != nil {
		return nil, err
	}
	pl := &KSPlan{
		level:   l,
		sBasis:  sBasis,
		union:   union,
		evkIdx:  evkIdx,
		nttS:    r.Plan(),
		nttU:    nttU,
		modDown: md,
	}
	if l > 0 {
		pl.rescale, err = r.NewModDownPlan(sBasis.Prefix(l), rns.Basis{Moduli: sBasis.Moduli[l:]})
		if err != nil {
			return nil, err
		}
	}
	for d := 0; ; d++ {
		lo, hi, ok := p.DigitRange(d, l)
		if !ok {
			break
		}
		digitBasis := rns.Basis{Moduli: sBasis.Moduli[lo:hi]}
		compMods := make([]uint64, 0, union.Len()-(hi-lo))
		compMods = append(compMods, sBasis.Moduli[:lo]...)
		compMods = append(compMods, sBasis.Moduli[hi:]...)
		compMods = append(compMods, union.Moduli[sBasis.Len():]...)
		compBasis := rns.Basis{Moduli: compMods}
		bc, err := ring.ConverterFor(digitBasis, compBasis)
		if err != nil {
			return nil, err
		}
		own := make([]int, union.Len())
		for u := range own {
			if u >= lo && u < hi {
				own[u] = u
			} else {
				own[u] = -1
			}
		}
		pl.digits = append(pl.digits, ksDigit{
			lo: lo, hi: hi,
			digit: digitBasis, comp: compBasis,
			bc: bc, own: own,
		})
	}
	pl.zscale = make([][4]uint64, sBasis.Len())
	for d := range pl.digits {
		dg := &pl.digits[d]
		for j := dg.lo; j < dg.hi; j++ {
			wx, wxs, wy, wys := pl.nttS.Table(j).ScaledLastPair(dg.bc.QHatInv(j - dg.lo))
			pl.zscale[j] = [4]uint64{wx, wxs, wy, wys}
		}
	}
	return pl, nil
}

// KSPlanAtLevel returns the keyswitch plan for level l, compiling it on
// first use. Plans are immutable and cached per parameter set; concurrent
// first calls may compile duplicates, of which one wins — both are valid.
// Returns an error on lazy (table-free) parameter sets.
func (p *Parameters) KSPlanAtLevel(l int) (*KSPlan, error) {
	if l < 0 || l >= len(p.ksPlans) {
		return nil, fmt.Errorf("ckks: level %d out of [0,%d]", l, len(p.ksPlans)-1)
	}
	if pl := p.ksPlans[l].Load(); pl != nil {
		return pl, nil
	}
	pl, err := p.newKSPlan(l)
	if err != nil {
		return nil, err
	}
	if !p.ksPlans[l].CompareAndSwap(nil, pl) {
		pl = p.ksPlans[l].Load()
	}
	return pl, nil
}

// CompilePlans eagerly compiles the keyswitch and rescale plans of every
// level, so steady-state serving never compiles on a request path. The
// serving registry calls this once at program-catalog build time. It is a
// no-op on lazy (table-free) parameter sets, which cannot execute anyway.
func (p *Parameters) CompilePlans() error {
	if p.Ring.Plan() == nil {
		return nil
	}
	for l := 0; l <= p.MaxLevel(); l++ {
		if _, err := p.KSPlanAtLevel(l); err != nil {
			return fmt.Errorf("ckks: compiling keyswitch plan at level %d: %w", l, err)
		}
	}
	return nil
}
