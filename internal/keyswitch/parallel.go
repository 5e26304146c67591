package keyswitch

import (
	"fmt"

	"cinnamon/internal/ckks"
	"cinnamon/internal/parallel"
	"cinnamon/internal/ring"
)

// forEachChip runs fn for every virtual chip on the worker pool (chips are
// the paper's unit of limb partitioning, so they are embarrassingly
// parallel on CPU too) and returns the first error any chip produced.
func forEachChip(n int, fn func(chip int) error) error {
	errs := make([]error, n)
	parallel.For(n, func(chip int) {
		errs[chip] = fn(chip)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inputBroadcast implements paper Fig. 8b. Every chip receives a copy of
// all input limbs (one all-gather), then computes, entirely locally, the
// mod-up, inner product and mod-down restricted to its own chain limbs plus
// a duplicated copy of the extension limbs. The per-limb arithmetic is
// identical to the sequential algorithm, so the result is bit-exact.
//
// The returned CommStats are measured, not analytic: each ChipIB counts
// the limbs it absorbed across a chip boundary, exactly as the cluster
// transport does, and the per-chip counts are summed here. A test asserts
// the measurement equals the paper's analytic formula (AnalyticStats).
func (e *Engine) inputBroadcast(c *ring.Poly, evk *ckks.EvalKey) (*ring.Poly, *ring.Poly, CommStats, error) {
	r := e.Params.Ring
	if !c.IsNTT {
		return nil, nil, CommStats{}, fmt.Errorf("keyswitch: input must be NTT")
	}
	l := c.Basis.Len() - 1
	n := e.NChips
	stats := CommStats{Broadcasts: 1}

	cc := c.Copy()
	if err := r.INTT(cc); err != nil {
		return nil, nil, stats, err
	}
	out0 := r.NewPoly(c.Basis)
	out1 := r.NewPoly(c.Basis)
	out0.IsNTT, out1.IsNTT = true, true

	// Each chip writes a disjoint set of out0/out1 limbs, so chips run
	// concurrently on the worker pool (the software analogue of the paper's
	// per-chip execution). The digit loop is hoisted outside the chip loop:
	// the extension-limb part of each digit's mod-up is identical on every
	// chip (all chip bases duplicate the same P moduli), so it is computed
	// and NTT'd once per digit here and shared read-only across chips — a
	// cluster worker hosting a single chip computes it locally instead.
	chips := make([]*ChipIB, n)
	err := forEachChip(n, func(chip int) error {
		ck, err := e.NewChipIB(evk, chip, l)
		if err == nil {
			chips[chip] = ck // nil when the chip owns no limbs at this level
		}
		return err
	})
	defer func() {
		for _, ck := range chips {
			if ck != nil {
				ck.Release()
			}
		}
	}()
	if err != nil {
		return nil, nil, stats, err
	}
	for d, rng := range DigitRanges(e.Params, evk, l) {
		lo, hi := rng[0], rng[1]
		extNTT, err := e.DigitExtNTT(cc.Limbs[lo:hi], lo, hi)
		if err != nil {
			return nil, nil, stats, err
		}
		err = forEachChip(n, func(chip int) error {
			if chips[chip] == nil {
				return nil
			}
			return chips[chip].AbsorbDigit(d, cc.Limbs[lo:hi], extNTT)
		})
		e.Params.Ring.PutPoly(extNTT)
		if err != nil {
			return nil, nil, stats, err
		}
	}
	moved := make([]int, n)
	err = forEachChip(n, func(chip int) error {
		ck := chips[chip]
		if ck == nil {
			return nil
		}
		down0, down1, err := ck.Finish()
		if err != nil {
			return err
		}
		for k, j := range ck.Mine() {
			copy(out0.Limbs[j], down0.Limbs[k])
			copy(out1.Limbs[j], down1.Limbs[k])
		}
		moved[chip] = ck.Moved()
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}
	for _, m := range moved {
		stats.LimbsMoved += m
	}
	return out0, out1, stats, nil
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
	// Per-chip mod-up / inner-product / mod-down runs concurrently on the
	// worker pool; the "aggregate" additions are the cross-chip reduction,
	// so they stay serial below.
	down0 := make([]*ring.Poly, n)
	down1 := make([]*ring.Poly, n)
	err := forEachChip(n, func(chip int) error {
		mine, err := OADigitSet(evk, n, chip, l)
		if err != nil || len(mine) == 0 {
			return err
		}
		mineLimbs := make([][]uint64, len(mine))
		for k, j := range mine {
			mineLimbs[k] = cc.Limbs[j]
		}
		down0[chip], down1[chip], err = e.ChipOA(evk, chip, l, mineLimbs)
		return err
	})
	if err != nil {
		return nil, nil, stats, err
	}
	for chip := 0; chip < n; chip++ {
		contributed := false
		for fi, down := range []*ring.Poly{down0[chip], down1[chip]} {
			if down == nil {
				continue
			}
			contributed = true
			dst := sum0
			if fi == 1 {
				dst = sum1
			}
			if err := r.Add(dst, down, dst); err != nil {
				return nil, nil, stats, err
			}
			r.PutPoly(down)
		}
		if contributed && chip != 0 {
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
