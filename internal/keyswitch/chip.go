package keyswitch

// Per-chip keyswitch kernels. These are the units of work one chip
// performs during the paper's two scale-out collectives:
//
//   - ChipIB is the input-broadcast kernel (Fig. 8b) as an incremental
//     state machine: the caller feeds coefficient-domain digit limbs as
//     they become available — locally, or as frames arrive off the wire —
//     and the chip folds each digit into its running inner product, so
//     receive and compute overlap on a real network.
//   - ChipOA is the output-aggregation kernel (Fig. 8c): the chip's digit
//     set IS its limb partition, so it needs only its own limbs, computes
//     the full-width product locally, and hands back its mod-downed
//     partial sums for the aggregate-and-scatter.
//
// The in-process engine (parallel.go) executes both. Only ChipIB runs on
// a cluster worker (internal/cluster): the cluster puts input broadcast
// alone on the wire, and running the same kernel is what makes a
// distributed keyswitch bit-identical to the single-process one.
//
// The inner product is fused: each absorbed digit contributes unreduced
// 128-bit multiply-accumulates (ring.LazyAcc) and a single Barrett
// reduction per coefficient at Finish replaces the per-digit reduce-and-add
// passes. Digit NTTs are hoisted two ways: one transform of the mod-upped
// digit feeds both output components, and the extension-limb part of the
// mod-up — identical on every chip, since all chip bases share the
// duplicated P moduli — can be computed and transformed once per digit and
// shared across chips (AbsorbDigit's extNTT argument; the in-process engine
// does this, a one-chip-per-process cluster worker computes it locally).
//
// Each kernel also meters communication in the paper's units: a limb is
// "moved" when a chip absorbs a limb it does not own under the modular
// partition. The in-process engine and the network transport therefore
// count the same quantities, keeping CommStats comparable across both.

import (
	"fmt"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ntt"
	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// ChipIB accumulates one chip's share of an input-broadcast keyswitch.
// Feed every digit (in any order, each exactly once) with AbsorbDigit, then
// call Finish. Release must be called when done with the results.
type ChipIB struct {
	e    *Engine
	evk  *ckks.EvalKey
	chip int
	l    int

	mine      []int // chain indices this chip owns at level l
	ownBasis  rns.Basis
	chipBasis rns.Basis
	// Precompiled schedule: the batch NTT plan over the chip basis, the
	// own ← own ∪ P mod-down plan, the universe limb positions of the
	// chip-basis moduli (for evaluation-key views), and the
	// AbsorbDigitFused ownership map — owned chain limbs are always
	// coefficient-domain mod-up rows (own[u] < 0), extension limbs index
	// into the shared NTT-domain extension (own[u] ≥ 0).
	plan       *ntt.BatchPlan
	mdPlan     *ring.ModDownPlan
	evkIdx     []int
	fusedOwn   []int
	acc0, acc1 *ring.LazyAcc // fused inner product over the chip basis

	moved    int // limbs absorbed that the chip does not own
	digits   int // digits covering level l (AbsorbDigit calls Finish expects)
	absorbed int // digits folded in so far
	finished bool

	down0, down1 *ring.Poly // Finish results (owned-limb mod-down, NTT)
}

// NewChipIB builds the chip-local state for an input-broadcast keyswitch
// of a level-l polynomial. It returns (nil, nil) when the chip owns no
// limbs at this level (the chip simply sits the collective out), and an
// error on a table-free (lazy) ring, whose transforms cannot execute.
func (e *Engine) NewChipIB(evk *ckks.EvalKey, chip, l int) (*ChipIB, error) {
	if evk.DigitSets != nil {
		return nil, fmt.Errorf("keyswitch: input broadcast requires a default-partition key")
	}
	if chip < 0 || chip >= e.NChips {
		return nil, fmt.Errorf("keyswitch: chip %d out of range [0,%d)", chip, e.NChips)
	}
	if l < 0 || l >= e.Params.QBasis.Len() {
		return nil, fmt.Errorf("keyswitch: level %d out of range", l)
	}
	mine := ChipLimbs(chip, l, e.NChips)
	if len(mine) == 0 {
		return nil, nil
	}
	params, r := e.Params, e.Params.Ring
	if r.Plan() == nil {
		return nil, fmt.Errorf("keyswitch: input broadcast needs a ring with NTT tables (lazy parameter sets cannot execute)")
	}
	// Per-chip basis: owned chain limbs plus the (duplicated) extension.
	ownMods := make([]uint64, 0, len(mine))
	for _, j := range mine {
		ownMods = append(ownMods, params.QBasis.Moduli[j])
	}
	chipMods := make([]uint64, 0, len(mine)+params.PBasis.Len())
	chipMods = append(chipMods, ownMods...)
	chipMods = append(chipMods, params.PBasis.Moduli...)
	c := &ChipIB{
		e:         e,
		evk:       evk,
		chip:      chip,
		l:         l,
		mine:      mine,
		digits:    len(DigitRanges(params, evk, l)),
		ownBasis:  rns.Basis{Moduli: ownMods},
		chipBasis: rns.Basis{Moduli: chipMods},
		acc0:      r.GetLazyAcc(rns.Basis{Moduli: chipMods}),
		acc1:      r.GetLazyAcc(rns.Basis{Moduli: chipMods}),
	}
	var err error
	if c.plan, err = r.PlanForBasis(c.chipBasis); err != nil {
		c.Release()
		return nil, err
	}
	if c.mdPlan, err = r.NewModDownPlan(c.ownBasis, params.PBasis); err != nil {
		c.Release()
		return nil, err
	}
	c.evkIdx = make([]int, len(chipMods))
	for u, q := range chipMods {
		j, ok := r.UniverseIndex(q)
		if !ok {
			c.Release()
			return nil, fmt.Errorf("keyswitch: chip modulus %d outside universe", q)
		}
		c.evkIdx[u] = j
	}
	c.fusedOwn = make([]int, len(chipMods))
	for u := range c.fusedOwn {
		if u < len(mine) {
			c.fusedOwn[u] = -1
		} else {
			c.fusedOwn[u] = u - len(mine)
		}
	}
	return c, nil
}

// Mine returns the chain indices this chip owns at the keyswitch level.
func (c *ChipIB) Mine() []int { return c.mine }

// AbsorbDigit folds digit d into the chip's inner product. digitLimbs are
// the coefficient-domain limbs of the input polynomial at chain indices
// [lo,hi) for this digit, in chain order. extNTT is the digit's
// extension-limb mod-up: nil computes it locally (as a one-chip cluster
// worker does); otherwise it must be Engine.DigitExtNTT of the same digit
// limbs — the NTT-domain P-basis extension, which is identical for every
// chip and can therefore be computed once per digit and shared. The chip
// only reads extNTT, so concurrent chips may share one copy.
func (c *ChipIB) AbsorbDigit(d int, digitLimbs [][]uint64, extNTT *ring.Poly) error {
	if c.finished {
		return fmt.Errorf("keyswitch: AbsorbDigit after Finish")
	}
	lo, hi, ok := c.e.Params.DigitRange(d, c.l)
	if !ok {
		return fmt.Errorf("keyswitch: digit %d does not exist at level %d", d, c.l)
	}
	if len(digitLimbs) != hi-lo {
		return fmt.Errorf("keyswitch: digit %d wants %d limbs, got %d", d, hi-lo, len(digitLimbs))
	}
	r := c.e.Params.Ring
	// Meter: every absorbed limb the chip does not own crossed a chip
	// boundary (the broadcast of Fig. 8b).
	for j := lo; j < hi; j++ {
		if c.e.ChipOf(j) != c.chip {
			c.moved++
		}
	}
	if extNTT == nil {
		local, err := c.e.DigitExtNTT(digitLimbs, lo, hi)
		if err != nil {
			return err
		}
		defer r.PutPoly(local)
		extNTT = local
	}
	if !extNTT.IsNTT || extNTT.Basis.Len() != c.e.Params.PBasis.Len() {
		return fmt.Errorf("keyswitch: digit extension must be NTT-domain over the P basis")
	}
	// Mod-up restricted to the owned chain limbs (the extension part is
	// supplied), coefficient domain.
	own, err := c.e.chipDigitModUpOwn(digitLimbs, lo, hi, c.mine, c.ownBasis)
	if err != nil {
		return err
	}
	defer r.PutPoly(own)
	// The owned mod-up rows run the fused forward-transform-and-accumulate
	// kernel (their NTT images never reach memory), the shared extension
	// limbs multiply-accumulate in place, and the evaluation-key halves are
	// borrowed views at the precompiled universe positions — no transform
	// pass, no header churn.
	bD, err := r.ViewAt(c.evk.B[d], c.chipBasis, c.evkIdx)
	if err != nil {
		return err
	}
	defer r.PutView(bD)
	aD, err := r.ViewAt(c.evk.A[d], c.chipBasis, c.evkIdx)
	if err != nil {
		return err
	}
	defer r.PutView(aD)
	if err := r.AbsorbDigitFused(c.plan, c.acc0, c.acc1, c.fusedOwn, extNTT, own.Limbs, bD, aD); err != nil {
		return err
	}
	c.absorbed++
	return nil
}

// Finish reduces the fused accumulators, mod-downs the products and
// returns the chip's owned output limbs: down0/down1 are NTT-domain
// polynomials whose limb k holds the output at chain index Mine()[k]. The
// polynomials are pooled and stay valid until Release.
func (c *ChipIB) Finish() (down0, down1 *ring.Poly, err error) {
	if c.finished {
		return nil, nil, fmt.Errorf("keyswitch: Finish called twice")
	}
	if c.absorbed != c.digits {
		return nil, nil, fmt.Errorf("keyswitch: Finish after %d of %d digits", c.absorbed, c.digits)
	}
	c.finished = true
	r := c.e.Params.Ring
	// Local mod-down: the duplicated extension limbs are the trailing
	// limbs of the chip basis, so no communication is needed. It runs in
	// the NTT domain through the precompiled plan: only the extension limbs
	// leave the NTT domain, and the combine is fused with the forward
	// transform (ring.ModDownNTTWith) — bit-identical to the INTT → ModDown
	// → NTT triple it replaces.
	for fi, acc := range []*ring.LazyAcc{c.acc0, c.acc1} {
		f := r.GetPolyUninit(c.chipBasis)
		acc.ReduceInto(f)
		down, err := r.ModDownNTTWith(c.mdPlan, f)
		r.PutPoly(f)
		if err != nil {
			return nil, nil, err
		}
		if fi == 0 {
			c.down0 = down
		} else {
			c.down1 = down
		}
	}
	return c.down0, c.down1, nil
}

// Moved returns the limbs this chip absorbed across a chip boundary
// (CommStats units).
func (c *ChipIB) Moved() int { return c.moved }

// Release returns all pooled storage. Safe to call at any point, including
// after errors; the Finish results are invalid afterwards.
func (c *ChipIB) Release() {
	r := c.e.Params.Ring
	c.acc0.Release()
	c.acc1.Release()
	r.PutPoly(c.down0)
	r.PutPoly(c.down1)
	c.acc0, c.acc1, c.down0, c.down1 = nil, nil, nil, nil
}

// DigitExtNTT mod-ups digit limbs [lo,hi) (coefficient domain) to the
// extension basis P and transforms the result to the NTT domain. This part
// of the per-digit mod-up is chip-independent — every chip basis carries
// the same duplicated P moduli — so the in-process engine computes it once
// per digit and shares it across all chips via AbsorbDigit. The
// returned polynomial and all scratch are pooled; the caller releases it
// with PutPoly once every chip has absorbed the digit.
func (e *Engine) DigitExtNTT(digitLimbs [][]uint64, lo, hi int) (*ring.Poly, error) {
	params, r := e.Params, e.Params.Ring
	digitBasis := rns.Basis{Moduli: params.QBasis.Moduli[lo:hi]}
	bc, err := ring.ConverterFor(digitBasis, params.PBasis)
	if err != nil {
		return nil, err
	}
	z := r.GetPolyUninit(digitBasis)
	ext := r.GetPolyUninit(params.PBasis)
	if err := bc.ConvertInto(digitLimbs, z.Limbs, ext.Limbs); err != nil {
		r.PutPoly(z)
		r.PutPoly(ext)
		return nil, err
	}
	r.PutPoly(z)
	if err := r.NTT(ext); err != nil {
		r.PutPoly(ext)
		return nil, err
	}
	return ext, nil
}

// chipDigitModUpOwn mod-ups the digit limbs [lo,hi) (coefficient domain)
// onto the chip's owned chain moduli only: limbs inside the digit that the
// chip owns are copied exactly, the rest are base-converted. The extension
// part of the chip basis is handled separately (DigitExtNTT).
func (e *Engine) chipDigitModUpOwn(digitLimbs [][]uint64, lo, hi int, mine []int, ownBasis rns.Basis) (*ring.Poly, error) {
	params, r := e.Params, e.Params.Ring
	digitBasis := rns.Basis{Moduli: params.QBasis.Moduli[lo:hi]}
	var convMods []uint64
	for _, j := range mine {
		if j < lo || j >= hi {
			convMods = append(convMods, params.QBasis.Moduli[j])
		}
	}
	var conv *ring.Poly
	if len(convMods) > 0 {
		convBasis := rns.Basis{Moduli: convMods}
		bc, err := ring.ConverterFor(digitBasis, convBasis)
		if err != nil {
			return nil, err
		}
		z := r.GetPolyUninit(digitBasis)
		conv = r.GetPolyUninit(convBasis)
		if err := bc.ConvertInto(digitLimbs, z.Limbs, conv.Limbs); err != nil {
			r.PutPoly(z)
			r.PutPoly(conv)
			return nil, err
		}
		r.PutPoly(z)
	}
	out := r.GetPolyUninit(ownBasis)
	ci := 0
	for k, j := range mine {
		if j >= lo && j < hi {
			copy(out.Limbs[k], digitLimbs[j-lo])
		} else {
			copy(out.Limbs[k], conv.Limbs[ci])
			ci++
		}
	}
	r.PutPoly(conv)
	return out, nil
}

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
