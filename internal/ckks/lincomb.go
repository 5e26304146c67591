package ckks

import (
	"fmt"
	"math"

	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// LinComb accumulates one linear combination Σₖ wₖ ⊙ ctₖ at a fixed level,
// each weight a plaintext or a real constant: the inner product of a
// baby-step/giant-step linear transform or of a polynomial's direct
// evaluation. Terms are 128-bit multiply-accumulates into two pooled
// ring.LazyAcc (one per ciphertext component) and Sum finishes with a single
// Barrett reduction per coefficient, where the MulPlain/MulConst → Add chain
// reduces twice and allocates a ciphertext per term. An operand above the
// target level is read through its limb prefix — no DropLevel copy. The sum
// is the canonical residue either way, so it is limb for limb what the chain
// returns.
//
// A LinComb is single-use and not safe for concurrent use: Sum or Release
// returns its storage to the ring's pools.
type LinComb struct {
	level  int
	r      *ring.Ring
	basis  rns.Basis
	a0, a1 *ring.LazyAcc
	scale  float64 // the first term's product scale
	terms  int
}

// NewLinComb returns an empty accumulator at the given level. Release it
// (or call Sum) when done.
func (ev *Evaluator) NewLinComb(level int) (*LinComb, error) {
	basis, err := ev.params.BasisAtLevel(level)
	if err != nil {
		return nil, err
	}
	r := ev.params.Ring
	return &LinComb{level: level, r: r, basis: basis, a0: r.GetLazyAcc(basis), a1: r.GetLazyAcc(basis)}, nil
}

// admit checks a term against the accumulator: its ciphertext at or above
// the target level, and — like Evaluator.Add — its product scale equal to
// the first term's within the rescaling drift. The first term's scale is
// the sum's.
func (lc *LinComb) admit(ct *Ciphertext, scale float64) error {
	if lc.a0 == nil {
		return fmt.Errorf("ckks: LinComb used after Sum or Release")
	}
	if ct.Level() < lc.level {
		return fmt.Errorf("ckks: ciphertext at level %d below the sum's level %d", ct.Level(), lc.level)
	}
	if lc.terms == 0 {
		lc.scale = scale
	} else if !sameScale(lc.scale, scale) {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", lc.scale, scale)
	}
	lc.terms++
	return nil
}

// AddMulPlain accumulates ct ⊙ pt, the term Evaluator.MulPlain computes.
func (lc *LinComb) AddMulPlain(ct *Ciphertext, pt *Plaintext) error {
	if pt.Level() < lc.level {
		return fmt.Errorf("ckks: plaintext at level %d below the sum's level %d", pt.Level(), lc.level)
	}
	if err := lc.admit(ct, ct.Scale*pt.Scale); err != nil {
		return err
	}
	if err := lc.a0.MulAcc(ct.C0, pt.Poly); err != nil {
		return err
	}
	return lc.a1.MulAcc(ct.C1, pt.Poly)
}

// AddMulConst accumulates c·ct with the real constant c encoded at the given
// plaintext scale, the term Evaluator.MulConstAtScale computes: a constant's
// encoding is the integer round(c·scale) in every NTT cell.
func (lc *LinComb) AddMulConst(ct *Ciphertext, c, scale float64) error {
	if err := lc.admit(ct, ct.Scale*scale); err != nil {
		return err
	}
	v := int64(math.Round(c * scale))
	if err := lc.a0.MulScalarAcc(ct.C0, v); err != nil {
		return err
	}
	return lc.a1.MulScalarAcc(ct.C1, v)
}

// Sum reduces the accumulated terms into a pooled ciphertext at the
// accumulator's level and releases the accumulator.
func (lc *LinComb) Sum() (*Ciphertext, error) {
	if lc.a0 == nil || lc.terms == 0 {
		lc.Release()
		return nil, fmt.Errorf("ckks: LinComb has no terms to sum")
	}
	out := &Ciphertext{C0: lc.r.GetPolyUninit(lc.basis), C1: lc.r.GetPolyUninit(lc.basis), Scale: lc.scale}
	lc.a0.ReduceInto(out.C0)
	lc.a1.ReduceInto(out.C1)
	lc.Release()
	return out, nil
}

// Release returns the accumulator's storage to the ring's pools. Safe after
// Sum and safe to call twice.
func (lc *LinComb) Release() {
	lc.a0.Release()
	lc.a1.Release()
	lc.a0, lc.a1 = nil, nil
}
