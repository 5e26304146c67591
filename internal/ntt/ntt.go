// Package ntt implements the negacyclic Number Theoretic Transform over
// prime fields — the analog of the FFT in the polynomial rings CKKS uses
// (paper §2 "NTT"). Transforming a limb to the evaluation domain makes
// polynomial multiplication a pointwise product.
//
// The butterflies use Harvey-style lazy reduction: intermediate values live
// in [0, 4q) (forward) or [0, 2q) (inverse), each butterfly pays a single
// conditional subtraction of 2q plus a lazy Shoup multiply returning values
// in [0, 2q), and one correction folded into the last stage returns the
// output to the canonical range [0, q). The inverse transform additionally
// folds the N⁻¹ scaling into its last-stage twiddles, so no separate
// scaling pass runs. This halves the reduction work per butterfly compared
// to fully-reduced AddMod/SubMod/MulModShoup arithmetic.
package ntt

import (
	"fmt"
	"math/bits"

	"cinnamon/internal/rns"
)

// Table holds precomputed twiddle factors for a dimension-N negacyclic NTT
// modulo the prime Q. A Table is safe for concurrent use by multiple
// goroutines after construction.
type Table struct {
	N    int
	Q    uint64
	logN int
	twoQ uint64

	// Twiddles in the interleaved layout the kernels read: twF[2i] =
	// ψ^brv(i) (powers of the 2N-th root in bit-reversed order) and
	// twF[2i+1] its Shoup companion; twI likewise holds ψ^{-brv(i)}. A
	// butterfly touches one cache line per twiddle pair instead of two
	// parallel streams.
	twF []uint64
	twI []uint64

	nInv       uint64 // N^{-1}, folded into the inverse last stage
	nInvShoup  uint64
	wLast      uint64 // ψ^{-brv(1)}·N^{-1}: last-stage inverse twiddle with N⁻¹ folded in
	wLastShoup uint64

	// bar caches the Barrett constants of Q for the fused last-stage
	// multiply (ForwardMul), whose left operand is a lazy (< 4q) butterfly
	// output.
	bar rns.BarrettParams
}

// NewTable builds NTT tables for dimension n (a power of two) and prime q
// with q ≡ 1 (mod 2n). The lazy butterflies keep values in [0, 4q), so q
// must be below 2^62 (every prime GenerateNTTPrimes produces is).
func NewTable(n int, q uint64) (*Table, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: dimension %d is not a power of two ≥ 2", n)
	}
	if q >= 1<<62 {
		return nil, fmt.Errorf("ntt: prime %d exceeds the 2^62 lazy-reduction bound", q)
	}
	if q%uint64(2*n) != 1 {
		return nil, fmt.Errorf("ntt: prime %d is not ≡ 1 mod %d", q, 2*n)
	}
	psi, err := rns.PrimitiveRoot(q, uint64(2*n))
	if err != nil {
		return nil, err
	}
	t := &Table{
		N:    n,
		Q:    q,
		logN: bits.Len(uint(n)) - 1,
		twoQ: 2 * q,
		twF:  make([]uint64, 2*n),
		twI:  make([]uint64, 2*n),
	}
	psiInv := rns.InvMod(psi, q)
	fwd, inv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		r := reverseBits(uint64(i), t.logN)
		t.twF[2*r], t.twF[2*r+1] = fwd, rns.ShoupPrecomp(fwd, q)
		t.twI[2*r], t.twI[2*r+1] = inv, rns.ShoupPrecomp(inv, q)
		fwd = rns.MulMod(fwd, psi, q)
		inv = rns.MulMod(inv, psiInv, q)
	}
	t.nInv = rns.InvMod(uint64(n)%q, q)
	t.nInvShoup = rns.ShoupPrecomp(t.nInv, q)
	t.wLast = rns.MulMod(t.twI[2], t.nInv, q)
	t.wLastShoup = rns.ShoupPrecomp(t.wLast, q)
	t.bar = rns.NewBarrettParams(q)
	return t, nil
}

func reverseBits(x uint64, n int) uint64 {
	return bits.Reverse64(x) >> (64 - uint(n))
}

// Forward transforms a from the coefficient domain to the evaluation domain
// in place (Cooley-Tukey decimation-in-time with the 2N-th root folded in,
// so no separate pre-multiplication by ψ^i is needed). len(a) must be N and
// all entries < Q; the output is canonical (< Q).
//
// Lazy invariant: stage inputs are < 4q. Each butterfly reduces its upper
// operand once by 2q (→ < 2q), multiplies the lower lazily (→ < 2q), and
// emits sum/difference < 4q. The last stage folds the final correction back
// to [0, q).
func (t *Table) Forward(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: Forward on slice of length %d, table dimension %d", len(a), t.N))
	}
	t.forwardMain(a)
	t.fwdLast(a)
}

// Inverse transforms a from the evaluation domain back to the coefficient
// domain in place (Gentleman-Sande decimation-in-frequency). The scaling by
// N⁻¹ is folded into the last stage's twiddles, and the same stage folds
// the correction back to the canonical range, so the whole transform is
// log N butterfly passes and nothing else. Inputs must be < Q; the output
// is canonical (< Q).
//
// Lazy invariant: every stage maps operands < 2q to results < 2q (one
// conditional subtract-by-2q on the sum, a lazy Shoup multiply of the
// 2q-shifted difference).
func (t *Table) Inverse(a []uint64) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: Inverse on slice of length %d, table dimension %d", len(a), t.N))
	}
	if t.N >= 4 {
		t.inverseMain(a, nil)
	}
	t.invLast(a)
}

// TableSet caches one Table per modulus for a fixed ring dimension.
type TableSet struct {
	N      int
	tables map[uint64]*Table
}

// NewTableSet builds tables for every modulus in moduli.
func NewTableSet(n int, moduli []uint64) (*TableSet, error) {
	ts := &TableSet{N: n, tables: make(map[uint64]*Table, len(moduli))}
	for _, q := range moduli {
		tb, err := NewTable(n, q)
		if err != nil {
			return nil, err
		}
		ts.tables[q] = tb
	}
	return ts, nil
}

// Table returns the table for modulus q, or nil if absent.
func (ts *TableSet) Table(q uint64) *Table { return ts.tables[q] }
