package keyswitch

import (
	"fmt"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ring"
)

// inputBroadcast implements paper Fig. 8b. Every chip receives a copy of
// all input limbs (one all-gather), then computes, entirely locally, the
// mod-up, inner product and mod-down restricted to its own chain limbs plus
// a duplicated copy of the extension limbs: the chip's ckks.KSPlan, fed
// the coefficient-domain digits exactly as a cluster worker is fed them off
// the wire. The per-limb arithmetic is the sequential algorithm's, so the
// result is bit-exact.
//
// The returned CommStats are measured, not analytic: each chip that takes
// part absorbs every input limb and owns len(Owned()) of them, so it moved
// the rest across a chip boundary — the count a cluster worker reports. A
// test asserts the measurement equals the paper's analytic formula
// (AnalyticStats).
func (e *Engine) inputBroadcast(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, CommStats, error) {
	r := e.Params.Ring
	if !c.IsNTT {
		return nil, nil, CommStats{}, fmt.Errorf("keyswitch: input must be NTT")
	}
	l := c.Basis.Len() - 1
	stats := CommStats{Broadcasts: 1}

	cc := c.Copy()
	if err := r.INTT(cc); err != nil {
		return nil, nil, stats, err
	}
	digits := DigitRanges(e.Params, evk, l)
	out0 := r.NewPoly(c.Basis)
	out1 := r.NewPoly(c.Basis)
	out0.IsNTT, out1.IsNTT = true, true

	// Each chip writes a disjoint set of out0/out1 limbs and only reads cc.
	// More chips than limbs: the chips past l sit the collective out.
	for chip := 0; chip < e.NChips && chip <= l; chip++ {
		owned, err := e.chipInputBroadcast(chip, l, cc, evk, digits, out0, out1)
		if err != nil {
			return nil, nil, stats, err
		}
		stats.LimbsMoved += l + 1 - owned
	}
	return out0, out1, stats, nil
}

// chipInputBroadcast runs chip's share of inputBroadcast: its KSPlan over
// every digit of cc, with its own limbs of the result copied into out0 and
// out1. It returns how many limbs the chip owns.
func (e *Engine) chipInputBroadcast(chip, l int, cc *ring.Poly, evk *ckks.EvalKey, digits [][2]int, out0, out1 *ring.Poly) (int, error) {
	r := e.Params.Ring
	pl, err := e.chipPlan(chip, l)
	if err != nil {
		return 0, err
	}
	run, err := pl.Start(evk)
	if err != nil {
		return 0, err
	}
	defer run.Release()
	for d, rng := range digits {
		if err := run.AbsorbCoeff(d, cc.Limbs[rng[0]:rng[1]]); err != nil {
			return 0, err
		}
	}
	f0, f1, err := run.Finish()
	if err != nil {
		return 0, err
	}
	for k, j := range pl.Owned() {
		copy(out0.Limbs[j], f0.Limbs[k])
		copy(out1.Limbs[j], f1.Limbs[k])
	}
	r.PutPoly(f0)
	r.PutPoly(f1)
	return len(pl.Owned()), nil
}

// chipPlan returns chip's keyswitch plan at level l, compiling it on first
// use: the plan owns ChipLimbs(chip, l, NChips).
func (e *Engine) chipPlan(chip, l int) (*ckks.KSPlan, error) {
	key := [2]int{chip, l}
	if pl, ok := e.plans.Load(key); ok {
		return pl.(*ckks.KSPlan), nil
	}
	pl, err := e.Params.KSPlanFor(l, ChipLimbs(chip, l, e.NChips))
	if err != nil {
		return nil, err
	}
	actual, _ := e.plans.LoadOrStore(key, pl)
	return actual.(*ckks.KSPlan), nil
}

// cifher implements the prior-art parallel keyswitch of CiFHER [38]: limbs
// stay modularly distributed and every base conversion is resolved by
// broadcasting its input limbs — once at mod-up and twice at mod-down
// (paper §4.3.1 "Challenge of parallelizing keyswitching"). The arithmetic
// is identical to the sequential algorithm, so the functional result is
// bit-exact; only the communication bill differs. CiFHER is a modeled
// baseline (no distributed implementation), so its CommStats stay
// analytic by definition.
func (e *Engine) cifher(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, CommStats, error) {
	l := c.Basis.Len() - 1
	stats := AnalyticStats(CiFHER, l, e.NChips, e.Params.PBasis.Len())
	f0, f1, err := e.sequential(c, evk)
	return f0, f1, stats, err
}

// outputAggregation implements paper Fig. 8c: the per-chip limb partition
// IS the digit partition, so the mod-up needs no communication; each chip
// mod-downs its full evaluation-key product locally and the chips finish
// with two aggregate-and-scatter operations. The mod-down/aggregation
// reorder makes the result equivalent to the sequential algorithm up to
// rounding noise (not bit-exact).
//
// CommStats are measured at the aggregation point: every contributing
// chip except the aggregation root (chip 0) ships its two full-width
// partial sums across a chip boundary — the same units the cluster
// transport counts.
func (e *Engine) outputAggregation(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, CommStats, error) {
	r := e.Params.Ring
	if !c.IsNTT {
		return nil, nil, CommStats{}, fmt.Errorf("keyswitch: input must be NTT")
	}
	l := c.Basis.Len() - 1
	n := e.NChips
	if _, err := OADigitSet(evk, n, 0, l); err != nil {
		return nil, nil, CommStats{}, err
	}
	stats := CommStats{Aggregations: 2}

	cc := c.Copy()
	if err := r.INTT(cc); err != nil {
		return nil, nil, stats, err
	}
	sum0 := r.NewPoly(c.Basis)
	sum1 := r.NewPoly(c.Basis)
	// Each chip's mod-up / inner-product / mod-down, then its share of the
	// "aggregate" additions, the cross-chip reduction.
	for chip := 0; chip < n; chip++ {
		mine, err := OADigitSet(evk, n, chip, l)
		if err != nil {
			return nil, nil, stats, err
		}
		if len(mine) == 0 {
			continue
		}
		mineLimbs := make([][]uint64, len(mine))
		for k, j := range mine {
			mineLimbs[k] = cc.Limbs[j]
		}
		down0, down1, err := e.ChipOA(evk, chip, l, mineLimbs)
		if err != nil {
			return nil, nil, stats, err
		}
		if err := r.Add(sum0, down0, sum0); err != nil {
			return nil, nil, stats, err
		}
		if err := r.Add(sum1, down1, sum1); err != nil {
			return nil, nil, stats, err
		}
		r.PutPoly(down0)
		r.PutPoly(down1)
		if chip != 0 {
			stats.LimbsMoved += 2 * (l + 1)
		}
	}
	if err := r.NTT(sum0); err != nil {
		return nil, nil, stats, err
	}
	if err := r.NTT(sum1); err != nil {
		return nil, nil, stats, err
	}
	return sum0, sum1, stats, nil
}

// ModularDigitSets returns the per-chip modular partition of the full
// chain, the digit layout output aggregation uses.
func ModularDigitSets(params *ckks.Parameters, nChips int) [][]int {
	sets := make([][]int, nChips)
	for j := 0; j < params.QBasis.Len(); j++ {
		c := j % nChips
		sets[c] = append(sets[c], j)
	}
	return sets
}
