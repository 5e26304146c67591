package ntt

import "fmt"

// BatchPlan transforms all limbs of a polynomial in one pass. Where the
// limb-at-a-time path re-derives each limb's table, a plan freezes the
// table sequence for a fixed basis at construction time: the radix-4
// per-limb kernels, twiddles in the interleaved layout so each butterfly
// pair costs one cache line.
//
// Plans are immutable after construction and safe for concurrent use.
type BatchPlan struct {
	N      int
	tables []*Table
}

// NewBatchPlan builds a plan over the given per-limb tables, which must
// all share one dimension. The slice is copied.
func NewBatchPlan(tables []*Table) (*BatchPlan, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("ntt: empty batch plan")
	}
	n := tables[0].N
	for i, tb := range tables {
		if tb == nil {
			return nil, fmt.Errorf("ntt: nil table at limb %d", i)
		}
		if tb.N != n {
			return nil, fmt.Errorf("ntt: mixed dimensions %d and %d in batch plan", n, tb.N)
		}
	}
	pl := &BatchPlan{N: n, tables: make([]*Table, len(tables))}
	copy(pl.tables, tables)
	return pl, nil
}

// Limbs returns the number of limbs the plan covers.
func (pl *BatchPlan) Limbs() int { return len(pl.tables) }

// Table returns the per-limb table at index i.
func (pl *BatchPlan) Table(i int) *Table { return pl.tables[i] }

// Forward transforms limbs[0:len] to the evaluation domain, one table per
// limb. len(limbs) may be any prefix of the plan's limb count (a poly at a
// lower level uses the same plan). A warm call allocates nothing.
func (pl *BatchPlan) Forward(limbs [][]uint64) {
	if len(limbs) > len(pl.tables) {
		panic(fmt.Sprintf("ntt: batch forward over %d limbs, plan holds %d", len(limbs), len(pl.tables)))
	}
	for i, limb := range limbs {
		pl.tables[i].Forward(limb)
	}
}

// Inverse transforms limbs[0:len] back to the coefficient domain; the
// same prefix rule as Forward applies.
func (pl *BatchPlan) Inverse(limbs [][]uint64) {
	if len(limbs) > len(pl.tables) {
		panic(fmt.Sprintf("ntt: batch inverse over %d limbs, plan holds %d", len(limbs), len(pl.tables)))
	}
	for i, limb := range limbs {
		pl.tables[i].Inverse(limb)
	}
}
