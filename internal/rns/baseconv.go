package rns

import (
	"fmt"
	"math/big"

	"cinnamon/internal/parallel"
)

// BaseConverter performs the fast (approximate) RNS base conversion of
// Bajard et al. from a source basis Q = {q_0..q_{ℓ-1}} to a disjoint target
// basis P = {p_0..p_{m-1}} (paper §2 "Base conversion"):
//
//	y_k = Σ_j ([x_j · (Q/q_j)^{-1}]_{q_j}) · (Q/q_j)  mod p_k
//
// The result represents x + u·Q for some integer 0 ≤ u < ℓ; this slack is
// the standard trade-off of fast base conversion and is absorbed by the
// noise budget in RNS-CKKS.
//
// The scalar tables held by a BaseConverter are exactly the "base conversion
// factors" the paper's BCU loads into its factor table (§4.7).
type BaseConverter struct {
	src, dst     Basis
	qHatInv      []uint64        // (Q/q_j)^{-1} mod q_j
	qHatInvShoup []uint64        // Shoup companions of qHatInv, per q_j
	qHatModP     [][]uint64      // [j][k] = (Q/q_j) mod p_k (reduced)
	qHatShoup    [][]uint64      // Shoup companions of qHatModP, per p_k
	dstBar       []BarrettParams // Barrett constants per target modulus
}

// NewBaseConverter precomputes conversion factors from src to dst. The two
// bases must be disjoint.
func NewBaseConverter(src, dst Basis) (*BaseConverter, error) {
	for _, p := range dst.Moduli {
		if src.Contains(p) {
			return nil, fmt.Errorf("rns: bases overlap on modulus %d", p)
		}
	}
	Q := src.Product()
	l, m := src.Len(), dst.Len()
	bc := &BaseConverter{
		src:          src,
		dst:          dst,
		qHatInv:      make([]uint64, l),
		qHatInvShoup: make([]uint64, l),
		qHatModP:     make([][]uint64, l),
		qHatShoup:    make([][]uint64, l),
		dstBar:       make([]BarrettParams, m),
	}
	for k, p := range dst.Moduli {
		bc.dstBar[k] = NewBarrettParams(p)
	}
	tmp := new(big.Int)
	for j, q := range src.Moduli {
		qj := new(big.Int).SetUint64(q)
		Qj := new(big.Int).Div(Q, qj)
		inv := new(big.Int).ModInverse(tmp.Mod(Qj, qj), qj)
		if inv == nil {
			return nil, fmt.Errorf("rns: modulus %d not coprime with basis product", q)
		}
		bc.qHatInv[j] = inv.Uint64()
		bc.qHatInvShoup[j] = ShoupPrecomp(bc.qHatInv[j], q)
		bc.qHatModP[j] = make([]uint64, m)
		bc.qHatShoup[j] = make([]uint64, m)
		for k, p := range dst.Moduli {
			f := tmp.Mod(Qj, new(big.Int).SetUint64(p)).Uint64()
			bc.qHatModP[j][k] = f
			bc.qHatShoup[j][k] = ShoupPrecomp(f, p)
		}
	}
	return bc, nil
}

// Dst returns the target basis.
func (bc *BaseConverter) Dst() Basis { return bc.dst }

// Convert converts limbs in the source basis (in[j][i] = coefficient i of
// residue polynomial mod q_j) to limbs in the target basis. All input limbs
// must have equal length. The polynomial must be in coefficient (not NTT)
// representation, matching the paper's constraint that base conversion only
// operates in the coefficient domain.
func (bc *BaseConverter) Convert(in [][]uint64) ([][]uint64, error) {
	l, m := bc.src.Len(), bc.dst.Len()
	if len(in) != l {
		return nil, fmt.Errorf("rns: got %d limbs, source basis has %d", len(in), l)
	}
	n := len(in[0])
	z := make([][]uint64, l)
	for j := range z {
		z[j] = make([]uint64, n)
	}
	out := make([][]uint64, m)
	for k := range out {
		out[k] = make([]uint64, n)
	}
	if err := bc.ConvertInto(in, z, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ConvertInto is Convert with caller-provided scratch: z must hold src.Len()
// limbs and out dst.Len() limbs, all of the input's coefficient count. No
// heap allocation occurs, making this the serving-path entry point — the
// evaluator passes pooled polynomials for both. Neither z nor out needs to
// be zeroed; every cell is written before it is read.
//
// The z stage stripes over source limbs under the usual WorthFanout gate.
// The accumulate stage has few tasks with heavy per-task work (one task per
// target limb, each sweeping all source limbs), so it gates on
// parallel.WorthFanoutWide: mod-up's two extension limbs at four workers
// fanned out to a half-idle pool and measured as a 0.94× slowdown in
// BENCH_core.json — wide gating keeps exactly that shape serial while
// mod-down's many-limb conversions still fan out.
func (bc *BaseConverter) ConvertInto(in, z, out [][]uint64) error {
	l, m := bc.src.Len(), bc.dst.Len()
	if len(in) != l || len(z) != l {
		return fmt.Errorf("rns: got %d/%d limbs, source basis has %d", len(in), len(z), l)
	}
	if len(out) != m {
		return fmt.Errorf("rns: got %d output limbs, target basis has %d", len(out), m)
	}
	n := len(in[0])
	for j := 0; j < l; j++ {
		if len(in[j]) != n || len(z[j]) != n {
			return fmt.Errorf("rns: limb %d length %d/%d != %d", j, len(in[j]), len(z[j]), n)
		}
	}
	for k := 0; k < m; k++ {
		if len(out[k]) != n {
			return fmt.Errorf("rns: output limb %d length %d != %d", k, len(out[k]), n)
		}
	}
	if parallel.Workers() > 1 && parallel.WorthFanout(l, n, parallel.CostMul) {
		parallel.For(l, func(j int) { bc.zLimb(j, in[j], z[j]) })
	} else {
		for j := 0; j < l; j++ {
			bc.zLimb(j, in[j], z[j])
		}
	}
	return bc.AccumulateInto(z, out)
}

// AccumulateInto runs only the accumulate stage of ConvertInto: z must
// already hold the canonical z-values z_j = [x_j·(Q/q_j)⁻¹]_{q_j}. Callers
// that fold the z-stage into a neighboring kernel (the keyswitch digit
// decompose folds it into the inverse transform's last stage via
// ntt.InverseScaledFrom) enter here. The fast base conversion is exact in
// the z representatives, so z must be canonical — a lazy residue would
// change the result, not just its representative.
func (bc *BaseConverter) AccumulateInto(z, out [][]uint64) error {
	l, m := bc.src.Len(), bc.dst.Len()
	if len(z) != l {
		return fmt.Errorf("rns: got %d z limbs, source basis has %d", len(z), l)
	}
	if len(out) != m {
		return fmt.Errorf("rns: got %d output limbs, target basis has %d", len(out), m)
	}
	n := len(z[0])
	if parallel.Workers() > 1 && parallel.WorthFanoutWide(m, n, parallel.CostMul*l) {
		parallel.For(m, func(k int) { bc.accInto(k, z, out[k]) })
	} else {
		for k := 0; k < m; k++ {
			bc.accInto(k, z, out[k])
		}
	}
	return nil
}

// QHatInv returns (Q/q_j)⁻¹ mod q_j for source limb j — the z-stage scalar,
// exposed so transform kernels can fold it into their last stage.
func (bc *BaseConverter) QHatInv(j int) uint64 { return bc.qHatInv[j] }

// zLimb computes z = in · (Q/q_j)^{-1} mod q_j for source limb j.
func (bc *BaseConverter) zLimb(j int, in, z []uint64) {
	q := bc.src.Moduli[j]
	w, ws := bc.qHatInv[j], bc.qHatInvShoup[j]
	for i, x := range in {
		z[i] = MulModShoup(x, w, ws, q)
	}
}

// stripe runs fn over [0, count) limbs, in parallel when the weighted work
// (coefficients × per-element cost class) is enough to amortize a goroutine
// per limb; see parallel.WorthFanout.
func (bc *BaseConverter) stripe(count, n, cost int, fn func(int)) {
	if parallel.WorthFanout(count, n, cost) {
		parallel.For(count, fn)
		return
	}
	for i := 0; i < count; i++ {
		fn(i)
	}
}

// accumulate computes target limb k: Σ_j z_j · (Q/q_j) mod p_k. The z
// residues are unreduced mod p_k; the Shoup kernel (valid for arbitrary x,
// see MulModShoup) folds the reduction into the multiply with a single
// precomputed quotient per (j,k) factor, avoiding the per-element hardware
// division the naive z%p form costs. Moduli ≥ 2^62 (never produced by
// GenerateNTTPrimes, but possible for hand-built bases) fall back to the
// Barrett kernel. acc may be nil (allocated) or a zeroed scratch slice.
func (bc *BaseConverter) accumulate(k int, z [][]uint64, n int, acc []uint64) []uint64 {
	if acc == nil {
		acc = make([]uint64, n)
	}
	bc.accInto(k, z, acc)
	return acc
}

// accInto computes target limb k into acc, write-first: the first source
// limb stores, later limbs accumulate, so acc needs no prior zeroing (and
// no wasted zero-fill pass on pooled scratch).
//
// A one-limb source — every rescale, a one-limb mod-down, and a keyswitch
// digit at alpha = 1 — is a single Shoup product with its one conditional
// subtraction, which is the general loop's first pass. The two-limb
// sources — every keyswitch digit at alpha = 2, and every mod-down whose
// extension is a special-modulus pair — run a fully in-register path: two
// lazy Shoup products (< 2p each, for any z, even from a source modulus
// larger than p) summed with no per-term correction, then conditional
// subtractions of 2p and p (the sum is < 4p < 2^64 under the p < 2^62
// gate). The result is the unique canonical residue, so the fast path is
// bit-identical to the general accumulation.
func (bc *BaseConverter) accInto(k int, z [][]uint64, acc []uint64) {
	p := bc.dst.Moduli[k]
	if len(z) == 2 && p < 1<<62 {
		twoP := 2 * p
		f0, fs0 := bc.qHatModP[0][k], bc.qHatShoup[0][k]
		f1, fs1 := bc.qHatModP[1][k], bc.qHatShoup[1][k]
		z0, z1 := z[0], z[1]
		for i := range acc {
			s := MulModShoupLazy(z0[i], f0, fs0, p) + MulModShoupLazy(z1[i], f1, fs1, p)
			acc[i] = ReduceOnce(Reduce2Q(s, twoP), p)
		}
		return
	}
	if p >= 1<<62 {
		bp := bc.dstBar[k]
		for j := range z {
			f := bc.qHatModP[j][k]
			zj := z[j]
			if j == 0 {
				for i := range acc {
					acc[i] = bp.MulMod(zj[i], f)
				}
				continue
			}
			for i := range acc {
				acc[i] = AddMod(acc[i], bp.MulMod(zj[i], f), p)
			}
		}
		return
	}
	for j := range z {
		f, fs := bc.qHatModP[j][k], bc.qHatShoup[j][k]
		zj := z[j]
		if j == 0 {
			for i := range acc {
				acc[i] = MulModShoup(zj[i], f, fs, p)
			}
			continue
		}
		for i := range acc {
			acc[i] = AddMod(acc[i], MulModShoup(zj[i], f, fs, p), p)
		}
	}
}

// ConvertScalarCount returns the number of scalar multiply-accumulate
// operations one Convert call performs per coefficient; used by the
// architecture model to size the BCU workload.
func (bc *BaseConverter) ConvertScalarCount() int {
	return bc.src.Len() * (1 + bc.dst.Len())
}

// ConvertExact performs the exact base conversion: the u·Q slack of the
// fast conversion is removed by estimating u = floor(Σ_j z_j/q_j) in
// floating point (Σ z_j/q_j = u + x/Q exactly; the estimate is correct
// whenever x/Q stays clear of the float64 rounding error). Some RNS-CKKS
// operations — notably exact rescaling in decryption-side tooling — want
// the representative in [0, Q) rather than [0, (ℓ+1)Q).
func (bc *BaseConverter) ConvertExact(in [][]uint64) ([][]uint64, error) {
	l, m := bc.src.Len(), bc.dst.Len()
	if len(in) != l {
		return nil, fmt.Errorf("rns: got %d limbs, source basis has %d", len(in), l)
	}
	n := len(in[0])
	for j := 0; j < l; j++ {
		if len(in[j]) != n {
			return nil, fmt.Errorf("rns: limb %d length %d != %d", j, len(in[j]), n)
		}
	}
	z := make([][]uint64, l)
	inv := make([]float64, l)
	bc.stripe(l, n, parallel.CostMul, func(j int) {
		inv[j] = 1 / float64(bc.src.Moduli[j])
		z[j] = make([]uint64, n)
		bc.zLimb(j, in[j], z[j])
	})
	u := make([]uint64, n) // slack multiple per coefficient
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < l; j++ {
			sum += float64(z[j][i]) * inv[j]
		}
		// Σ z_j/q_j = u + x/Q exactly, so the slack is the floor.
		u[i] = uint64(sum)
	}
	out := make([][]uint64, m)
	bc.stripe(m, n, parallel.CostMul*l, func(k int) {
		p := bc.dst.Moduli[k]
		bp := bc.dstBar[k]
		// Q mod p for the correction term.
		qModP := uint64(1)
		for _, q := range bc.src.Moduli {
			qModP = MulMod(qModP, q%p, p)
		}
		acc := bc.accumulate(k, z, n, nil)
		for i := 0; i < n; i++ {
			acc[i] = SubMod(acc[i], bp.MulMod(u[i], qModP), p)
		}
		out[k] = acc
	})
	return out, nil
}
