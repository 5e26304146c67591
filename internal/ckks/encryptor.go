package ckks

import (
	"fmt"
	"math"

	"cinnamon/internal/ring"
)

// Ciphertext is a CKKS ciphertext (C0, C1) in the NTT domain with scale
// bookkeeping: Dec(ct) = C0 + C1·s ≈ Δ·m.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Scale  float64
}

// Level returns the ciphertext level (limbs − 1).
func (ct *Ciphertext) Level() int { return ct.C0.Basis.Len() - 1 }

// Copy deep-copies the ciphertext.
func (ct *Ciphertext) Copy() *Ciphertext {
	return &Ciphertext{C0: ct.C0.Copy(), C1: ct.C1.Copy(), Scale: ct.Scale}
}

// AtLevel returns ct truncated to level, 0 ≤ level ≤ ct.Level(): a view of
// its first level+1 limbs that shares their storage, so no limb is copied.
// Dropping the top of the chain changes neither the encrypted values nor the
// scale. ct itself is returned when it is already at level.
func (ct *Ciphertext) AtLevel(level int) *Ciphertext {
	if level == ct.Level() {
		return ct
	}
	n := level + 1
	prefix := func(p *ring.Poly) *ring.Poly {
		return &ring.Poly{Basis: p.Basis.Prefix(n), Limbs: p.Limbs[:n:n], IsNTT: p.IsNTT}
	}
	return &Ciphertext{C0: prefix(ct.C0), C1: prefix(ct.C1), Scale: ct.Scale}
}

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *ring.Sampler
}

// NewEncryptor returns an encryptor. The sampler seed is offset from the
// parameter seed so encryption randomness differs from key material.
func NewEncryptor(params *Parameters, pk *PublicKey) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.Ring, params.Seed()+0x517cc1b7)}
}

// Encrypt encrypts pt at the plaintext's level:
// (C0, C1) = (b·u + e0 + m, a·u + e1).
func (e *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	r := e.params.Ring
	basis := pt.Poly.Basis
	if !pt.Poly.IsNTT {
		return nil, fmt.Errorf("ckks: plaintext must be in NTT domain")
	}
	pkb, err := restrict(e.pk.B, basis)
	if err != nil {
		return nil, err
	}
	pka, err := restrict(e.pk.A, basis)
	if err != nil {
		return nil, err
	}
	u := e.sampler.ZOPoly(basis)
	if err := r.NTT(u); err != nil {
		return nil, err
	}
	e0 := e.sampler.GaussianPoly(basis)
	e1 := e.sampler.GaussianPoly(basis)
	if err := r.NTT(e0); err != nil {
		return nil, err
	}
	if err := r.NTT(e1); err != nil {
		return nil, err
	}
	c0 := r.NewPoly(basis)
	if err := r.MulCoeffs(pkb, u, c0); err != nil {
		return nil, err
	}
	if err := r.Add(c0, e0, c0); err != nil {
		return nil, err
	}
	if err := r.Add(c0, pt.Poly, c0); err != nil {
		return nil, err
	}
	c1 := r.NewPoly(basis)
	if err := r.MulCoeffs(pka, u, c1); err != nil {
		return nil, err
	}
	if err := r.Add(c1, e1, c1); err != nil {
		return nil, err
	}
	return &Ciphertext{C0: c0, C1: c1, Scale: pt.Scale}, nil
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes C0 + C1·s at the ciphertext level.
func (d *Decryptor) Decrypt(ct *Ciphertext) (*Plaintext, error) {
	r := d.params.Ring
	basis := ct.C0.Basis
	s, err := restrict(d.sk.S, basis)
	if err != nil {
		return nil, err
	}
	m := r.NewPoly(basis)
	if err := r.MulCoeffs(ct.C1, s, m); err != nil {
		return nil, err
	}
	if err := r.Add(m, ct.C0, m); err != nil {
		return nil, err
	}
	return &Plaintext{Poly: m, Scale: ct.Scale, LevelV: ct.Level()}, nil
}

// sameScale reports whether two scales agree to within the alignment
// tolerance homomorphic addition requires. Rescaling by primes that are
// only approximately the scale introduces relative drift of ~2^-30 per
// level; treating scales within 2^-20 as equal absorbs that drift while
// still rejecting genuinely mismatched operands.
func sameScale(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}
