package ring

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"sync"

	"cinnamon/internal/rns"
)

// convCache memoizes BaseConverters keyed by the (src, dst) moduli lists.
var convCache sync.Map

// basisKey renders a moduli list compactly for cache keys (cheaper than
// fmt.Sprintf on the hot keyswitch path).
func basisKey(sb *strings.Builder, moduli []uint64) {
	for _, q := range moduli {
		sb.WriteString(strconv.FormatUint(q, 16))
		sb.WriteByte(',')
	}
}

func convKey(src, dst rns.Basis) string {
	var sb strings.Builder
	sb.Grow(18 * (len(src.Moduli) + len(dst.Moduli)))
	basisKey(&sb, src.Moduli)
	sb.WriteByte('>')
	basisKey(&sb, dst.Moduli)
	return sb.String()
}

func converter(src, dst rns.Basis) (*BaseConverter, error) {
	key := convKey(src, dst)
	if v, ok := convCache.Load(key); ok {
		return v.(*BaseConverter), nil
	}
	bc, err := NewBaseConverter(src, dst)
	if err != nil {
		return nil, err
	}
	convCache.Store(key, bc)
	return bc, nil
}

// ConverterFor returns a cached BaseConverter from src to dst; packages
// implementing keyswitching variants share converters through this cache.
func ConverterFor(src, dst rns.Basis) (*BaseConverter, error) {
	return converter(src, dst)
}

// ModUp extends p (coefficient domain, basis S) to the basis S ∪ ext by
// fast base conversion of all limbs to the extension moduli (paper Fig. 3,
// left). The input is unchanged.
func (r *Ring) ModUp(p *Poly, ext rns.Basis) (*Poly, error) {
	if p.IsNTT {
		return nil, fmt.Errorf("ring: ModUp requires coefficient domain")
	}
	bc, err := converter(p.Basis, ext)
	if err != nil {
		return nil, err
	}
	extLimbs, err := bc.Convert(p.Limbs)
	if err != nil {
		return nil, err
	}
	union, err := p.Basis.Union(ext)
	if err != nil {
		return nil, err
	}
	out := r.getPolyHeader()
	out.Basis, out.IsNTT = union, false
	if cap(out.Limbs) >= union.Len() {
		out.Limbs = out.Limbs[:union.Len()]
	} else {
		out.Limbs = make([][]uint64, union.Len())
	}
	for j, pj := range p.Limbs {
		l := r.getLimbNoZero()
		copy(l, pj)
		out.Limbs[j] = l
	}
	copy(out.Limbs[len(p.Limbs):], extLimbs)
	return out, nil
}

// modDownInv caches, per (ext→s) basis pair, the per-limb constants
// w_j = (Π ext)^{-1} mod s_j with their Shoup companions. The big-integer
// inversions otherwise dominate small ModDown calls.
var modDownInv sync.Map

type shoupScalar struct{ w, ws uint64 }

func modDownConstants(ext, s rns.Basis) ([]shoupScalar, error) {
	key := convKey(ext, s)
	if v, ok := modDownInv.Load(key); ok {
		return v.([]shoupScalar), nil
	}
	P := ext.Product()
	tmp := new(big.Int)
	consts := make([]shoupScalar, s.Len())
	for j, q := range s.Moduli {
		qb := new(big.Int).SetUint64(q)
		pInv := new(big.Int).ModInverse(tmp.Mod(P, qb), qb)
		if pInv == nil {
			return nil, fmt.Errorf("ring: extension product not invertible mod %d", q)
		}
		w := pInv.Uint64()
		consts[j] = shoupScalar{w: w, ws: rns.ShoupPrecomp(w, q)}
	}
	modDownInv.Store(key, consts)
	return consts, nil
}

// ModDown converts p (coefficient domain, basis S ∪ E where the last
// ext.Len() moduli are E) down to basis S, dividing by P = Π E and rounding
// (paper Fig. 3, right):  out ≈ p / P over S.
func (r *Ring) ModDown(p *Poly, ext rns.Basis) (*Poly, error) {
	if p.IsNTT {
		return nil, fmt.Errorf("ring: ModDown requires coefficient domain")
	}
	sLen := p.Basis.Len() - ext.Len()
	if sLen <= 0 {
		return nil, fmt.Errorf("ring: basis of %d limbs cannot drop %d extension limbs", p.Basis.Len(), ext.Len())
	}
	for i, q := range ext.Moduli {
		if p.Basis.Moduli[sLen+i] != q {
			return nil, fmt.Errorf("ring: extension basis does not match trailing moduli of %v", p.Basis)
		}
	}
	s := p.Basis.Prefix(sLen)
	// Convert the extension limbs down to S.
	bc, err := converter(ext, s)
	if err != nil {
		return nil, err
	}
	conv, err := bc.Convert(p.Limbs[sLen:])
	if err != nil {
		return nil, err
	}
	// out_j = (a_j - conv_j) * P^{-1} mod q_j.
	consts, err := modDownConstants(ext, s)
	if err != nil {
		return nil, err
	}
	out := r.getPolyUninit(s)
	for j, q := range s.Moduli {
		w, ws := consts[j].w, consts[j].ws
		aj, cj, oj := p.Limbs[j], conv[j], out.Limbs[j]
		for i := range aj {
			oj[i] = rns.MulModShoup(rns.SubMod(aj[i], cj[i], q), w, ws, q)
		}
	}
	return out, nil
}

// rescaleInv caches w = q_l^{-1} mod q with its Shoup companion, keyed by
// the (q_l, q) pair; the chain is fixed per parameter set, so the cache
// stays tiny while removing a PowMod from every rescale limb.
var rescaleInv sync.Map

func rescaleConstant(ql, q uint64) shoupScalar {
	key := [2]uint64{ql, q}
	if v, ok := rescaleInv.Load(key); ok {
		return v.(shoupScalar)
	}
	w := rns.InvMod(ql%q, q)
	c := shoupScalar{w: w, ws: rns.ShoupPrecomp(w, q)}
	rescaleInv.Store(key, c)
	return c
}

// Rescale divides p by its last modulus q_ℓ and drops the corresponding
// limb — the CKKS rescaling operation that consumes one level. Works in the
// coefficient domain. Ciphertexts rescale in the NTT domain instead, as a
// one-limb ModDownNTTWith (ckks.Evaluator.Rescale); this kernel is that
// path's bit-identity oracle.
func (r *Ring) Rescale(p *Poly) (*Poly, error) {
	if p.IsNTT {
		return nil, fmt.Errorf("ring: Rescale requires coefficient domain")
	}
	l := p.Basis.Len() - 1
	if l < 1 {
		return nil, fmt.Errorf("ring: cannot rescale a single-limb polynomial")
	}
	ql := p.Basis.Moduli[l]
	out := r.getPolyUninit(p.Basis.Prefix(l))
	// Universe-aligned polys (every ciphertext) read the eagerly built
	// constant row; foreign bases fall back to the sync.Map cache, whose
	// boxed keys allocate per probe.
	var row []shoupScalar
	if r.alignedPrefix(p.Basis) {
		row = r.rescaleTab[l]
	}
	// out_j = (a_j - [a_l mod q_j]) · q_l^{-1} mod q_j.
	last := p.Limbs[l]
	for j, q := range out.Basis.Moduli {
		var c shoupScalar
		if row != nil {
			c = row[j]
		} else {
			c = rescaleConstant(ql, q)
		}
		bp := r.Barrett(q)
		aj, oj := p.Limbs[j], out.Limbs[j]
		for i := range aj {
			oj[i] = rns.MulModShoup(rns.SubMod(aj[i], bp.Reduce(last[i]), q), c.w, c.ws, q)
		}
	}
	return out, nil
}

// CoeffToBig reconstructs coefficient i of p (coefficient domain) as an
// integer in [0, Q). Intended for tests and diagnostics.
func (p *Poly) CoeffToBig(i int) (*big.Int, error) {
	if p.IsNTT {
		return nil, fmt.Errorf("ring: CoeffToBig requires coefficient domain")
	}
	res := make([]uint64, p.Basis.Len())
	for j := range p.Limbs {
		res[j] = p.Limbs[j][i]
	}
	return p.Basis.CRTReconstruct(res)
}

// CoeffToCentered returns coefficient i as a centered representative in
// (-Q/2, Q/2].
func (p *Poly) CoeffToCentered(i int) (*big.Int, error) {
	v, err := p.CoeffToBig(i)
	if err != nil {
		return nil, err
	}
	Q := p.Basis.Product()
	half := new(big.Int).Rsh(Q, 1)
	if v.Cmp(half) > 0 {
		v.Sub(v, Q)
	}
	return v, nil
}

// SetCoeffBig sets coefficient i of p from a (possibly negative) big
// integer, reducing into each modulus.
func (p *Poly) SetCoeffBig(i int, v *big.Int) {
	tmp := new(big.Int)
	for j, q := range p.Basis.Moduli {
		qb := tmp.SetUint64(q)
		m := new(big.Int).Mod(v, qb)
		p.Limbs[j][i] = m.Uint64()
	}
}
