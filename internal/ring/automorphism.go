package ring

import (
	"fmt"

	"cinnamon/internal/rns"
)

// GaloisGen is the generator of the subgroup of automorphisms that permute
// CKKS slots (rotations). Powers of 5 mod 2N hit every odd residue ≡ 1 mod 4.
const GaloisGen uint64 = 5

// GaloisElementForRotation returns the Galois element g = 5^k mod 2N whose
// automorphism X → X^g implements a rotation of the CKKS slot vector by k
// positions (negative k rotates the other way).
func (r *Ring) GaloisElementForRotation(k int) uint64 {
	m := uint64(2 * r.N)
	order := uint64(r.N / 2) // order of 5 in Z_{2N}^*
	kk := uint64(((int64(k) % int64(order)) + int64(order))) % order
	return rns.PowMod(GaloisGen, kk, m)
}

// GaloisElementForConjugation returns the element 2N-1 (X → X^{-1}), which
// conjugates the complex slot values.
func (r *Ring) GaloisElementForConjugation() uint64 { return uint64(2*r.N - 1) }

// Automorphism applies X → X^{galEl} to p, writing to out. galEl must be
// odd. Works in both domains: in the coefficient domain it permutes (and
// sign-flips) coefficients; in the NTT domain it is a pure permutation of
// evaluation points (the paper's automorphism functional unit does exactly
// this gather).
func (r *Ring) Automorphism(p *Poly, galEl uint64, out *Poly) error {
	if galEl%2 == 0 {
		return fmt.Errorf("ring: automorphism element %d must be odd", galEl)
	}
	out.Basis, out.IsNTT = p.Basis, p.IsNTT
	r.ensureShape(out, p.Basis.Len())
	if p.IsNTT {
		idx := r.autoIndexNTT(galEl)
		for j, pj := range p.Limbs {
			oj := out.Limbs[j]
			for i := range oj {
				oj[i] = pj[idx[i]]
			}
		}
		return nil
	}
	m := uint64(2 * r.N)
	for j, q := range p.Basis.Moduli {
		pj, oj := p.Limbs[j], out.Limbs[j]
		for i := 0; i < r.N; i++ {
			t := (uint64(i) * galEl) % m
			if t < uint64(r.N) {
				oj[t] = pj[i]
			} else {
				oj[t-uint64(r.N)] = rns.NegMod(pj[i], q)
			}
		}
	}
	return nil
}

// AutomorphismIndexNTT exposes the NTT-domain gather index for executing
// automorphism instructions outside this package (ISA emulator/simulator).
func (r *Ring) AutomorphismIndexNTT(galEl uint64) []int {
	return r.autoIndexNTT(galEl)
}

// autoIndexNTT returns (caching) the gather index for applying the
// automorphism in the NTT domain with our bit-reversed evaluation ordering:
// position i holds the evaluation at ψ^{2·brv(i)+1}, so
// out[i] = in[ brv(((2·brv(i)+1)·g mod 2N − 1)/2) ].
// The cache is a sync.Map so concurrent rotations on a shared Ring are safe;
// a rare duplicate computation on first use is harmless.
func (r *Ring) autoIndexNTT(galEl uint64) []int {
	if idx, ok := r.autoCache.Load(galEl); ok {
		return idx.([]int)
	}
	n := uint64(r.N)
	m := 2 * n
	logN := 0
	for 1<<logN < r.N {
		logN++
	}
	brv := func(x uint64) uint64 {
		var y uint64
		for b := 0; b < logN; b++ {
			y = y<<1 | (x>>b)&1
		}
		return y
	}
	idx := make([]int, r.N)
	for i := uint64(0); i < n; i++ {
		e := 2*brv(i) + 1
		eNew := (e * galEl) % m
		idx[i] = int(brv((eNew - 1) / 2))
	}
	if prev, loaded := r.autoCache.LoadOrStore(galEl, idx); loaded {
		return prev.([]int)
	}
	return idx
}
