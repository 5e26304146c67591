package ring

import (
	"fmt"
	"math/big"

	"cinnamon/internal/ntt"
	"cinnamon/internal/rns"
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
// factors" the paper's BCU loads into its factor table (§4.7). Both stages
// run on internal/ntt's lane kernels: the z stage is a limb × constant
// Shoup product (ntt.MulShoup), and each target limb is one
// ntt.ConvAccumulate over every source limb.
type BaseConverter struct {
	src, dst     rns.Basis
	qHatInv      []uint64            // (Q/q_j)^{-1} mod q_j
	qHatInvShoup []uint64            // Shoup companions of qHatInv, per q_j
	qHatModP     [][]uint64          // [k][j] = (Q/q_j) mod p_k (reduced)
	qHatShoup    [][]uint64          // Shoup companions of qHatModP, per p_k
	dstBar       []rns.BarrettParams // Barrett constants per target modulus
}

// NewBaseConverter precomputes conversion factors from src to dst. The two
// bases must be disjoint. Serving code shares converters through
// ConverterFor's cache instead.
func NewBaseConverter(src, dst rns.Basis) (*BaseConverter, error) {
	for _, p := range dst.Moduli {
		if src.Contains(p) {
			return nil, fmt.Errorf("ring: bases overlap on modulus %d", p)
		}
	}
	Q := src.Product()
	l, m := src.Len(), dst.Len()
	bc := &BaseConverter{
		src:          src,
		dst:          dst,
		qHatInv:      make([]uint64, l),
		qHatInvShoup: make([]uint64, l),
		qHatModP:     make([][]uint64, m),
		qHatShoup:    make([][]uint64, m),
		dstBar:       make([]rns.BarrettParams, m),
	}
	for k, p := range dst.Moduli {
		bc.dstBar[k] = rns.NewBarrettParams(p)
		bc.qHatModP[k] = make([]uint64, l)
		bc.qHatShoup[k] = make([]uint64, l)
	}
	tmp := new(big.Int)
	for j, q := range src.Moduli {
		qj := new(big.Int).SetUint64(q)
		Qj := new(big.Int).Div(Q, qj)
		inv := new(big.Int).ModInverse(tmp.Mod(Qj, qj), qj)
		if inv == nil {
			return nil, fmt.Errorf("ring: modulus %d not coprime with basis product", q)
		}
		bc.qHatInv[j] = inv.Uint64()
		bc.qHatInvShoup[j] = rns.ShoupPrecomp(bc.qHatInv[j], q)
		for k, p := range dst.Moduli {
			f := tmp.Mod(Qj, new(big.Int).SetUint64(p)).Uint64()
			bc.qHatModP[k][j] = f
			bc.qHatShoup[k][j] = rns.ShoupPrecomp(f, p)
		}
	}
	return bc, nil
}

// Convert converts limbs in the source basis (in[j][i] = coefficient i of
// residue polynomial mod q_j) to limbs in the target basis. All input limbs
// must have equal length. The polynomial must be in coefficient (not NTT)
// representation, matching the paper's constraint that base conversion only
// operates in the coefficient domain.
func (bc *BaseConverter) Convert(in [][]uint64) ([][]uint64, error) {
	l, m := bc.src.Len(), bc.dst.Len()
	if len(in) != l {
		return nil, fmt.Errorf("ring: got %d limbs, source basis has %d", len(in), l)
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
func (bc *BaseConverter) ConvertInto(in, z, out [][]uint64) error {
	if len(out) != bc.dst.Len() {
		return fmt.Errorf("ring: got %d output limbs, target basis has %d", len(out), bc.dst.Len())
	}
	if err := bc.ZInto(in, z); err != nil {
		return err
	}
	for k := range out {
		if len(out[k]) != len(z[0]) {
			return fmt.Errorf("ring: output limb %d length %d != %d", k, len(out[k]), len(z[0]))
		}
	}
	return bc.AccumulateInto(z, out)
}

// ZInto runs only the z stage of ConvertInto: z_j = [x_j·(Q/q_j)⁻¹]_{q_j},
// canonical, for every source limb. A caller that must convert one source
// onto several targets, or read the z-values beside the conversion, runs
// it once and enters AccumulateInto per target.
func (bc *BaseConverter) ZInto(in, z [][]uint64) error {
	l := bc.src.Len()
	if len(in) != l || len(z) != l {
		return fmt.Errorf("ring: got %d/%d limbs, source basis has %d", len(in), len(z), l)
	}
	n := len(in[0])
	for j := 0; j < l; j++ {
		if len(in[j]) != n || len(z[j]) != n {
			return fmt.Errorf("ring: limb %d length %d/%d != %d", j, len(in[j]), len(z[j]), n)
		}
	}
	for j, q := range bc.src.Moduli {
		ntt.MulShoup(z[j][:n], in[j], bc.qHatInv[j], bc.qHatInvShoup[j], q)
	}
	return nil
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
		return fmt.Errorf("ring: got %d z limbs, source basis has %d", len(z), l)
	}
	if len(out) != m {
		return fmt.Errorf("ring: got %d output limbs, target basis has %d", len(out), m)
	}
	// Target limb k is Σ_j z_j · (Q/q_j) mod p_k, written first (out needs
	// no prior zeroing): one ntt.ConvAccumulate over every source limb,
	// which keeps the z residues unreduced mod p_k and folds the reduction
	// into one Shoup product per (j, k) factor — no per-element hardware
	// division.
	for k, acc := range out {
		ntt.ConvAccumulate(acc, z, bc.qHatModP[k], bc.qHatShoup[k], bc.dstBar[k])
	}
	return nil
}

// QHatInv returns (Q/q_j)⁻¹ mod q_j for source limb j — the z-stage scalar,
// exposed so transform kernels can fold it into their last stage.
func (bc *BaseConverter) QHatInv(j int) uint64 { return bc.qHatInv[j] }
