package ckks

import (
	"fmt"

	"cinnamon/internal/ntt"
	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// KSPlan is the precompiled keyswitch schedule of one chip at one level
// (DESIGN.md §12): every quantity the hybrid keyswitch otherwise derives
// per call — digit ranges, complement bases, base converters, batch NTT
// plans, the mod-down plan and the evaluation-key limb indices — frozen at
// compile time.
//
// A plan owns a set of chain limbs. Input broadcast (paper Fig. 8b) runs
// the sequential keyswitch on every chip restricted to the limbs it owns
// plus the duplicated P limbs, so the local keyswitch is the one-chip case:
// its plan owns all of Q_l, is cached per level (KSPlanAtLevel) and also
// carries the level's rescale plan. A cluster worker or the in-process chip
// model compiles its share with KSPlanFor. Every caller runs the same
// kernel: Start, absorb each digit, Finish. A warm local keyswitch makes
// zero heap allocations, and a warm rescale allocates only its Ciphertext.
type KSPlan struct {
	r      *ring.Ring
	level  int
	sBasis rns.Basis // chain prefix Q_l
	owned  []int     // chain limbs the chip owns, ascending
	basis  rns.Basis // owned limbs ∪ P: the accumulator basis
	evkIdx []int     // universe limb positions of the basis moduli
	digits []ksDigit
	// zscale[j] is the scaled last-stage pair (wx, wxs, wy, wys) that makes
	// chain limb j's inverse transform emit its owning digit's
	// base-conversion z-value directly (ntt.ScaledLastPair with
	// s = (Q_d/q_j)⁻¹ mod q_j): the decompose needs no input copy, no
	// separate INTT pass and no z-stage multiply.
	zscale [][4]uint64

	nttS    *ntt.BatchPlan    // the ring plan: chain limb j's table at j
	nttU    *ntt.BatchPlan    // batch plan over the accumulator basis
	modDown *ring.ModDownPlan // owned ∪ P → owned
	// rescale is the level's one-limb mod-down Q_{l−1} ∪ {q_l} → Q_{l−1}
	// (Evaluator.Rescale); only local plans above level 0 carry one.
	rescale *ring.ModDownPlan
}

// ksDigit is one digit's frozen decomposition state.
type ksDigit struct {
	lo, hi int       // chain-index interval [lo, hi)
	digit  rns.Basis // the digit's own moduli
	comp   rns.Basis // basis minus the digit's limbs, in basis order
	bc     *ring.BaseConverter
	// own[u] ≥ 0 marks accumulator limb u as the digit's chain limb
	// lo+own[u], read from the digit's NTT-domain source; own[u] < 0 marks
	// a base-converted limb.
	own []int
}

// Level returns the ciphertext level the plan serves.
func (pl *KSPlan) Level() int { return pl.level }

// Owned returns the chain limbs the plan's chip owns, ascending: limb k of
// Finish's outputs is chain limb Owned()[k].
func (pl *KSPlan) Owned() []int { return pl.owned }

// Digits returns the number of digits a keyswitch at the plan's level
// absorbs.
func (pl *KSPlan) Digits() int { return len(pl.digits) }

// KSPlanFor compiles the keyswitch plan of a chip that owns the given
// chain limbs (ascending, non-empty, at most l) at level l. It is not
// cached: a caller that switches repeatedly keeps the plan.
func (p *Parameters) KSPlanFor(l int, owned []int) (*KSPlan, error) {
	r := p.Ring
	if r.Plan() == nil {
		return nil, fmt.Errorf("ckks: ring has no NTT tables (lazy parameters)")
	}
	sBasis, err := p.BasisAtLevel(l)
	if err != nil {
		return nil, err
	}
	if len(owned) == 0 {
		return nil, fmt.Errorf("ckks: a level-%d keyswitch plan owns no limb", l)
	}
	ownMods := make([]uint64, len(owned))
	for k, j := range owned {
		if j < 0 || j > l || (k > 0 && j <= owned[k-1]) {
			return nil, fmt.Errorf("ckks: owned limbs %v are not ascending chain indices of level %d", owned, l)
		}
		ownMods[k] = sBasis.Moduli[j]
	}
	ownBasis := rns.Basis{Moduli: ownMods}
	basis, err := ownBasis.Union(p.PBasis)
	if err != nil {
		return nil, err
	}
	evkIdx := make([]int, basis.Len())
	for u, q := range basis.Moduli {
		j, ok := r.UniverseIndex(q)
		if !ok {
			return nil, fmt.Errorf("ckks: keyswitch modulus %d outside universe", q)
		}
		evkIdx[u] = j
	}
	nttU, err := r.PlanForBasis(basis)
	if err != nil {
		return nil, err
	}
	md, err := r.NewModDownPlan(ownBasis, p.PBasis)
	if err != nil {
		return nil, err
	}
	pl := &KSPlan{
		r:       r,
		level:   l,
		sBasis:  sBasis,
		owned:   append([]int(nil), owned...),
		basis:   basis,
		evkIdx:  evkIdx,
		nttS:    r.Plan(),
		nttU:    nttU,
		modDown: md,
	}
	if l > 0 && len(owned) == l+1 {
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
		own := make([]int, basis.Len())
		var compMods []uint64
		for u, q := range basis.Moduli {
			own[u] = -1
			if u < len(owned) && owned[u] >= lo && owned[u] < hi {
				own[u] = owned[u] - lo
			} else {
				compMods = append(compMods, q)
			}
		}
		compBasis := rns.Basis{Moduli: compMods}
		bc, err := ring.ConverterFor(digitBasis, compBasis)
		if err != nil {
			return nil, err
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

// KSPlanAtLevel returns the local keyswitch plan for level l (it owns all
// of Q_l), compiling it on first use. Plans are immutable and cached per
// parameter set; concurrent first calls may compile duplicates, of which
// one wins — both are valid. Returns an error on lazy (table-free)
// parameter sets.
func (p *Parameters) KSPlanAtLevel(l int) (*KSPlan, error) {
	if l < 0 || l >= len(p.ksPlans) {
		return nil, fmt.Errorf("ckks: level %d out of [0,%d]", l, len(p.ksPlans)-1)
	}
	if pl := p.ksPlans[l].Load(); pl != nil {
		return pl, nil
	}
	all := make([]int, l+1)
	for j := range all {
		all[j] = j
	}
	pl, err := p.KSPlanFor(l, all)
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

// KSRun is one keyswitch in flight on a plan: the chip's fused
// inner-product accumulators over owned ∪ P. Start it with KSPlan.Start,
// absorb every digit in order (the local keyswitch from its scaled
// decompose, a chip with AbsorbCoeff), then Finish;
// Release returns the accumulators to the ring pools (the zero KSRun
// releases nothing).
type KSRun struct {
	pl         *KSPlan
	evk        *EvalKey
	acc0, acc1 *ring.LazyAcc
	next       int // digits absorbed so far
}

// Start begins a keyswitch under evk. It refuses, with ErrNoKeySwitchPlan,
// a key the plan does not cover: one over a custom digit partition (those
// ride internal/keyswitch's output-aggregation kernels), one not over the
// full modulus universe, or one with fewer digits than the level needs —
// switching under those would yield a wrong polynomial and no error.
// Every refusal's text begins with ErrNoKeySwitchPlan's: a cluster worker
// sends it back as text, and the coordinator recognises it by that prefix.
func (pl *KSPlan) Start(evk *EvalKey) (KSRun, error) {
	switch {
	case evk.DigitSets != nil:
		return KSRun{}, fmt.Errorf("%w: key carries a custom digit partition", ErrNoKeySwitchPlan)
	case len(evk.B) == 0 || evk.B[0].Basis.Len() != pl.r.Universe.Len():
		return KSRun{}, fmt.Errorf("%w: key is not over the full modulus universe", ErrNoKeySwitchPlan)
	case len(evk.B) < len(pl.digits) || len(evk.A) < len(pl.digits):
		return KSRun{}, fmt.Errorf("%w: key has %d digits, level needs %d", ErrNoKeySwitchPlan, len(evk.B), len(pl.digits))
	}
	return KSRun{pl: pl, evk: evk, acc0: pl.r.GetLazyAcc(pl.basis), acc1: pl.r.GetLazyAcc(pl.basis)}, nil
}

// absorb folds digit d into the run. z holds the digit's base-conversion
// z-values (one canonical limb per chain limb lo..hi−1) and src its limbs
// in the NTT domain, of which only the owned ones are read (NTT∘INTT is
// exact, so they need no transform). The owned limbs outside the digit
// and the P limbs come from one base conversion of z, transformed inside
// the fused multiply-accumulate. Digits come in order, each once.
func (k *KSRun) absorb(d int, z, src [][]uint64) error {
	pl, r := k.pl, k.pl.r
	if d != k.next || d >= len(pl.digits) {
		return fmt.Errorf("ckks: keyswitch digit %d absorbed out of order (next %d of %d)", d, k.next, len(pl.digits))
	}
	dg := &pl.digits[d]
	if len(z) != dg.hi-dg.lo || len(src) != dg.hi-dg.lo {
		return fmt.Errorf("ckks: keyswitch digit %d wants %d limbs, got %d/%d", d, dg.hi-dg.lo, len(z), len(src))
	}
	conv := r.GetPolyUninit(dg.comp)
	defer r.PutPoly(conv)
	if err := dg.bc.AccumulateInto(z, conv.Limbs); err != nil {
		return err
	}
	bD, err := r.ViewAt(k.evk.B[d], pl.basis, pl.evkIdx)
	if err != nil {
		return err
	}
	defer r.PutView(bD)
	aD, err := r.ViewAt(k.evk.A[d], pl.basis, pl.evkIdx)
	if err != nil {
		return err
	}
	defer r.PutView(aD)
	if err := r.AbsorbDigitFused(pl.nttU, k.acc0, k.acc1, dg.own, src, conv.Limbs, bD, aD); err != nil {
		return err
	}
	k.next++
	return nil
}

// AbsorbCoeff is absorb from the digit's coefficient-domain limbs, the
// form in which a broadcast digit arrives: it runs the z stage and the
// forward transforms of the owned limbs inside the digit (on pooled
// copies — limbs is not modified), then absorbs.
func (k *KSRun) AbsorbCoeff(d int, limbs [][]uint64) error {
	pl, r := k.pl, k.pl.r
	if d < 0 || d >= len(pl.digits) {
		return fmt.Errorf("ckks: level %d has no keyswitch digit %d", pl.level, d)
	}
	dg := &pl.digits[d]
	z := r.GetPolyUninit(dg.digit)
	defer r.PutPoly(z)
	if err := dg.bc.ZInto(limbs, z.Limbs); err != nil {
		return err
	}
	src := r.GetPolyUninit(dg.digit)
	defer r.PutPoly(src)
	for _, i := range dg.own {
		if i >= 0 {
			copy(src.Limbs[i], limbs[i])
			pl.nttS.Table(dg.lo + i).Forward(src.Limbs[i])
		}
	}
	return k.absorb(d, z.Limbs, src.Limbs)
}

// Finish reduces the accumulators and mods them down by P onto the owned
// limbs, in the NTT domain: only the P limbs leave it, and the converted
// limbs' forward transforms are fused with the combine
// (ring.ModDownNTTWith). Limb k of f0/f1 is chain limb Owned()[k]; both
// come from the ring pools.
func (k *KSRun) Finish() (f0, f1 *ring.Poly, err error) {
	pl, r := k.pl, k.pl.r
	if k.next != len(pl.digits) {
		return nil, nil, fmt.Errorf("ckks: keyswitch finished after %d of %d digits", k.next, len(pl.digits))
	}
	g := r.GetPolyUninit(pl.basis)
	defer r.PutPoly(g)
	k.acc0.ReduceInto(g)
	if f0, err = r.ModDownNTTWith(pl.modDown, g); err != nil {
		return nil, nil, err
	}
	k.acc1.ReduceInto(g)
	if f1, err = r.ModDownNTTWith(pl.modDown, g); err != nil {
		r.PutPoly(f0)
		return nil, nil, err
	}
	return f0, f1, nil
}

// Release returns the run's accumulators to the ring pools.
func (k *KSRun) Release() {
	if k.acc0 != nil {
		k.acc0.Release()
		k.acc1.Release()
		k.acc0, k.acc1 = nil, nil
	}
}

// decompose writes every chain limb's z-value into z: limb j's
// out-of-place inverse transform of c emits its owning digit's z-value
// directly (copy, INTT and z stage in one pass).
func (pl *KSPlan) decompose(c, z *ring.Poly) {
	for j := 0; j < pl.sBasis.Len(); j++ {
		zs := &pl.zscale[j]
		pl.nttS.Table(j).InverseScaledFrom(c.Limbs[j], z.Limbs[j], zs[0], zs[1], zs[2], zs[3])
	}
}
