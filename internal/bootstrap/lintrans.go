// Package bootstrap implements CKKS bootstrapping (paper §2
// "Bootstrapping"): raising an exhausted ciphertext back to a high level by
// homomorphically evaluating the modular reduction. The pipeline is the
// standard one — ModRaise, CoeffToSlot (a homomorphic DFT), EvalMod (a
// Chebyshev sine approximation with double-angle folding), SlotToCoeff —
// and is dominated by the rotations/keyswitches the Cinnamon paper
// accelerates.
package bootstrap

import (
	"fmt"
	"sync"

	"cinnamon/internal/ckks"
)

// LinearTransform is a slot-space linear map represented by its nonzero
// diagonals, evaluated homomorphically with the baby-step/giant-step (BSGS)
// pattern: out = Σ_i rot_{i·n1}( Σ_j ptRot_{i,j} ⊙ rot_j(ct) ).
//
// This is exactly the "multiple rotations on a single ciphertext" pattern
// the paper's keyswitch pass batches (§4.3.1).
type LinearTransform struct {
	Slots int
	Diags map[int][]complex128
	N1    int // baby-step width (power of two)

	// Encoded diagonals are deterministic per (level, d), so they are
	// computed once and reused across every evaluation, any tenant. The
	// mutex also serializes the encoder during warm-up, so concurrent first
	// evaluations encode each diagonal once.
	ptMu    sync.Mutex
	ptCache map[uint64]*ckks.Plaintext
}

// NewLinearTransform builds the diagonal representation of the dense
// matrix m (out = m · in over slot vectors).
func NewLinearTransform(m [][]complex128) (*LinearTransform, error) {
	n := len(m)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("bootstrap: matrix dimension %d must be a power of two", n)
	}
	for i := range m {
		if len(m[i]) != n {
			return nil, fmt.Errorf("bootstrap: matrix is not square")
		}
	}
	lt := &LinearTransform{Slots: n, Diags: map[int][]complex128{}, ptCache: map[uint64]*ckks.Plaintext{}}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		zero := true
		for j := 0; j < n; j++ {
			diag[j] = m[j][(j+d)%n]
			if diag[j] != 0 {
				zero = false
			}
		}
		if !zero {
			lt.Diags[d] = diag
		}
	}
	n1 := 1
	for n1*n1 < len(lt.Diags) {
		n1 <<= 1
	}
	if n1 > n {
		n1 = n
	}
	lt.N1 = n1
	return lt, nil
}

// Rotations returns the slot offsets whose rotation keys Evaluate needs.
func (lt *LinearTransform) Rotations() []int {
	set := map[int]bool{}
	for d := range lt.Diags {
		i, j := d/lt.N1, d%lt.N1
		if j != 0 {
			set[j] = true
		}
		if i != 0 {
			set[i*lt.N1] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// diagPlaintext returns the encoded diagonal d at the given level,
// pre-rotated by −(d/N1)·N1 so the giant-step rotation realigns it. The
// encode scale is exactly the top modulus at that level, so the caller's
// rescale preserves ct.Scale. Encodes are deterministic, so a cache hit is
// bit-identical to a fresh encode.
func (lt *LinearTransform) diagPlaintext(enc *ckks.Encoder, level int, d int, scale float64) (*ckks.Plaintext, error) {
	key := uint64(level)<<32 | uint64(uint32(d))
	lt.ptMu.Lock()
	defer lt.ptMu.Unlock()
	if pt, ok := lt.ptCache[key]; ok {
		return pt, nil
	}
	diag := lt.Diags[d]
	shift := (d / lt.N1) * lt.N1
	w := make([]complex128, lt.Slots)
	for k := range w {
		w[k] = diag[((k-shift)%lt.Slots+lt.Slots)%lt.Slots]
	}
	pt, err := enc.Encode(w, level, scale)
	if err != nil {
		return nil, err
	}
	lt.ptCache[key] = pt
	return pt, nil
}

// babySteps returns the distinct nonzero baby-step offsets the transform's
// diagonals need. The order is map order: the rotations are independent, so
// it affects nothing.
func (lt *LinearTransform) babySteps() []int {
	var steps []int
	seen := map[int]bool{}
	for d := range lt.Diags {
		if j := d % lt.N1; j != 0 && !seen[j] {
			seen[j] = true
			steps = append(steps, j)
		}
	}
	return steps
}

// Evaluate applies the transform to ct. The output scale is
// ct.Scale · Δ; the caller rescales. enc must share the evaluator's
// parameters. The baby-step rotations, independent keyswitches of the one
// input, all run before the giant-step loop consumes them, and go back to
// the ring's pool after it; each giant step's inner sum and each superseded
// accumulator go back as soon as the next one exists. ct is left as it came.
func (lt *LinearTransform) Evaluate(ev *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	level := ct.Level()
	// Encode diagonals at exactly the modulus the following rescale will
	// consume, so the caller's rescale preserves ct.Scale exactly.
	scale := ev.TopModulus(level)
	steps := lt.babySteps()
	rotated := make([]*ckks.Ciphertext, lt.N1) // indexed by baby step
	rotated[0] = ct
	defer func() {
		for _, j := range steps {
			ev.Release(rotated[j])
		}
	}()
	for _, j := range steps {
		var err error
		if rotated[j], err = ev.Rotate(ct, j); err != nil {
			return nil, err
		}
	}
	var acc *ckks.Ciphertext
	for i := 0; i*lt.N1 < lt.Slots; i++ {
		inner, err := lt.innerSum(ev, enc, rotated, i, level, scale)
		if err == nil && inner != nil && i != 0 {
			inner, err = then(ev, inner, func(c *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.Rotate(c, i*lt.N1) })
		}
		if err != nil {
			ev.Release(acc)
			return nil, err
		}
		switch {
		case inner == nil:
		case acc == nil:
			acc = inner
		default:
			sum, err := ev.Add(acc, inner)
			ev.Release(acc)
			ev.Release(inner)
			if acc = sum; err != nil {
				return nil, err
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("bootstrap: linear transform has no nonzero diagonal")
	}
	return acc, nil
}

// innerSum returns giant step i's inner sum Σ_j ptRot_{i,j} ⊙ rotated[j]
// over the diagonals the transform has in that block, or nil when it has
// none: one lazy accumulate, one reduction.
func (lt *LinearTransform) innerSum(ev *ckks.Evaluator, enc *ckks.Encoder, rotated []*ckks.Ciphertext, i, level int, scale float64) (*ckks.Ciphertext, error) {
	lc, err := ev.NewLinComb(level)
	if err != nil {
		return nil, err
	}
	defer lc.Release()
	terms := 0
	for j := 0; j < lt.N1; j++ {
		d := i*lt.N1 + j
		if _, ok := lt.Diags[d]; !ok {
			continue
		}
		pt, err := lt.diagPlaintext(enc, level, d, scale)
		if err != nil {
			return nil, err
		}
		if err := lc.AddMulPlain(rotated[j], pt); err != nil {
			return nil, err
		}
		terms++
	}
	if terms == 0 {
		return nil, nil
	}
	return lc.Sum()
}

// Apply evaluates the transform on a plaintext vector (reference path for
// tests).
func (lt *LinearTransform) Apply(v []complex128) []complex128 {
	out := make([]complex128, lt.Slots)
	for d, diag := range lt.Diags {
		for j := 0; j < lt.Slots; j++ {
			out[j] += diag[j] * v[(j+d)%lt.Slots]
		}
	}
	return out
}
