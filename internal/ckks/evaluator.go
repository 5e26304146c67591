package ckks

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// Evaluator performs homomorphic operations on ciphertexts. It holds the
// relinearization and rotation keys it may need; operations that lack the
// required key fail with a descriptive error.
type Evaluator struct {
	params *Parameters
	rlk    *EvalKey
	rtks   *RotationKeySet
	ks     KeySwitcher
}

// KeySwitcher is a pluggable keyswitch backend. The cluster runtime
// implements it to route every relinearization and rotation keyswitch
// through the distributed collectives; the zero value (nil) keeps the
// built-in single-chip kernel. Implementations must accept c in NTT domain
// over a level basis and return two NTT-domain polynomials over the same
// basis, exactly like Evaluator.KeySwitch.
type KeySwitcher interface {
	KeySwitch(c *ring.Poly, evk *EvalKey) (*ring.Poly, *ring.Poly, error)
}

// SetKeySwitcher installs (or, with nil, removes) a keyswitch backend.
// Every MulRelin, Rotate and Conjugate afterwards dispatches through it.
func (ev *Evaluator) SetKeySwitcher(ks KeySwitcher) { ev.ks = ks }

// keySwitch dispatches to the installed backend, if any.
func (ev *Evaluator) keySwitch(c *ring.Poly, evk *EvalKey) (*ring.Poly, *ring.Poly, error) {
	if ev.ks != nil {
		return ev.ks.KeySwitch(c, evk)
	}
	return ev.KeySwitch(c, evk)
}

// NewEvaluator returns an evaluator. rlk and rtks may be nil when only
// linear operations are used. It builds no tables of its own — serving
// makes one per request — so a warm call is one small allocation.
func NewEvaluator(params *Parameters, rlk *EvalKey, rtks *RotationKeySet) *Evaluator {
	return &Evaluator{params: params, rlk: rlk, rtks: rtks}
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// MissingKeys reports, as "rlk" / "conj" / "rot:<k>" ids, which of the
// relinearization key, the conjugation key and the rotation keys for the
// given offsets the evaluator does not hold.
func (ev *Evaluator) MissingKeys(rotations []int) []string {
	var missing []string
	if ev.rlk == nil {
		missing = append(missing, "rlk")
	}
	if ev.rtks == nil || ev.rtks.Conj == nil {
		missing = append(missing, "conj")
	}
	for _, k := range rotations {
		if ev.rtks == nil || ev.rtks.Keys[k] == nil {
			missing = append(missing, fmt.Sprintf("rot:%d", k))
		}
	}
	return missing
}

// Buffer ownership: every operation returns a ciphertext whose limbs come
// from the ring's pool and belong to the caller, who may hand them back with
// Release once no view of them (AtLevel) is still in use. Returning them is
// optional: an unreleased ciphertext is simply collected.

// newOutput returns a ciphertext over basis b whose components are pooled
// with unspecified contents, for an operation that overwrites both.
func (ev *Evaluator) newOutput(b rns.Basis, scale float64) *Ciphertext {
	r := ev.params.Ring
	return &Ciphertext{C0: r.GetPolyUninit(b), C1: r.GetPolyUninit(b), Scale: scale}
}

// copyOf returns a pooled deep copy of ct.
func (ev *Evaluator) copyOf(ct *Ciphertext) *Ciphertext {
	r := ev.params.Ring
	return &Ciphertext{C0: r.GetPolyCopy(ct.C0), C1: r.GetPolyCopy(ct.C1), Scale: ct.Scale}
}

// Release returns ct's limb storage to the ring's pool and clears its
// components, so a later use of ct fails loudly. The caller must hold no
// other reference to those limbs: not the input of an operation whose
// output is still live, and no AtLevel view of ct. Passing nil is a no-op.
func (ev *Evaluator) Release(ct *Ciphertext) {
	if ct == nil {
		return
	}
	r := ev.params.Ring
	r.PutPoly(ct.C0)
	r.PutPoly(ct.C1)
	ct.C0, ct.C1 = nil, nil
}

// fail releases out and returns err: an operation's error exit.
func (ev *Evaluator) fail(out *Ciphertext, err error) (*Ciphertext, error) {
	ev.Release(out)
	return nil, err
}

// Add returns a + b. Operands must share level and scale.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.checkBinary(a, b); err != nil {
		return nil, err
	}
	r := ev.params.Ring
	out := ev.newOutput(a.C0.Basis, a.Scale)
	if err := r.Add(a.C0, b.C0, out.C0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.Add(a.C1, b.C1, out.C1); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// Sub returns a − b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.checkBinary(a, b); err != nil {
		return nil, err
	}
	r := ev.params.Ring
	out := ev.newOutput(a.C0.Basis, a.Scale)
	if err := r.Sub(a.C0, b.C0, out.C0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.Sub(a.C1, b.C1, out.C1); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// Neg returns −a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	r := ev.params.Ring
	out := ev.newOutput(a.C0.Basis, a.Scale)
	r.Neg(a.C0, out.C0)
	r.Neg(a.C1, out.C1)
	return out
}

func (ev *Evaluator) checkBinary(a, b *Ciphertext) error {
	if a.Level() != b.Level() {
		return fmt.Errorf("ckks: level mismatch %d vs %d", a.Level(), b.Level())
	}
	if !sameScale(a.Scale, b.Scale) {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", a.Scale, b.Scale)
	}
	return nil
}

// AddPlain returns ct + pt (matching level and scale).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level() != pt.Level() {
		return nil, fmt.Errorf("ckks: level mismatch ct %d vs pt %d", ct.Level(), pt.Level())
	}
	if !sameScale(ct.Scale, pt.Scale) {
		return nil, fmt.Errorf("ckks: scale mismatch %g vs %g", ct.Scale, pt.Scale)
	}
	r := ev.params.Ring
	out := &Ciphertext{C0: r.GetPolyUninit(ct.C0.Basis), C1: r.GetPolyCopy(ct.C1), Scale: ct.Scale}
	if err := r.Add(ct.C0, pt.Poly, out.C0); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// MulPlain returns ct ⊙ pt; the output scale is the product of scales.
// The caller typically rescales afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level() != pt.Level() {
		return nil, fmt.Errorf("ckks: level mismatch ct %d vs pt %d", ct.Level(), pt.Level())
	}
	r := ev.params.Ring
	out := ev.newOutput(ct.C0.Basis, ct.Scale*pt.Scale)
	if err := r.MulCoeffs(ct.C0, pt.Poly, out.C0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.MulCoeffs(ct.C1, pt.Poly, out.C1); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// MulRelin returns a ⊗ b relinearized back to two components using the
// relinearization key (paper Fig. 5, left). The output scale is the product
// of the input scales; the caller typically rescales afterwards.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.rlk == nil {
		return nil, fmt.Errorf("ckks: evaluator has no relinearization key")
	}
	if a.Level() != b.Level() {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", a.Level(), b.Level())
	}
	r := ev.params.Ring
	basis := a.C0.Basis
	out := ev.newOutput(basis, a.Scale*b.Scale)
	d0, d1 := out.C0, out.C1
	d2 := r.GetPolyUninit(basis)
	t := r.GetPolyUninit(basis)
	defer r.PutPoly(d2)
	defer r.PutPoly(t)
	if err := r.MulCoeffs(a.C0, b.C0, d0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.MulCoeffs(a.C0, b.C1, d1); err != nil {
		return ev.fail(out, err)
	}
	if err := r.MulCoeffs(a.C1, b.C0, t); err != nil {
		return ev.fail(out, err)
	}
	if err := r.Add(d1, t, d1); err != nil {
		return ev.fail(out, err)
	}
	if err := r.MulCoeffs(a.C1, b.C1, d2); err != nil {
		return ev.fail(out, err)
	}
	f0, f1, err := ev.keySwitch(d2, ev.rlk)
	if err != nil {
		return ev.fail(out, err)
	}
	defer r.PutPoly(f0)
	defer r.PutPoly(f1)
	if err := r.Add(d0, f0, d0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.Add(d1, f1, d1); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// ErrNoRescalePlan marks a rescale no precompiled plan covers: a ciphertext
// at level 0, in the coefficient domain, or off the standard chain prefix.
var ErrNoRescalePlan = errors.New("ckks: no rescale plan applies")

// Rescale divides the ciphertext by its last chain modulus, dropping one
// level and dividing the scale accordingly.
//
// A rescale is a mod-down by the one-limb extension {q_l}, run in the NTT
// domain through the level's precompiled plan (ring.ModDownNTTWith): per
// component one inverse transform (limb q_l) and l fused
// subtract-scale-forward transforms, bit-identical to INTT → ring.Rescale
// → NTT. Outputs come from the ring pools.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	l := ct.Level()
	if l == 0 {
		return nil, fmt.Errorf("%w: ciphertext is at level 0", ErrNoRescalePlan)
	}
	if !ct.C0.IsNTT || !ct.C1.IsNTT {
		return nil, fmt.Errorf("%w: input must be NTT", ErrNoRescalePlan)
	}
	pl, err := ev.params.KSPlanAtLevel(l)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRescalePlan, err)
	}
	if !pl.sBasis.Equal(ct.C0.Basis) || !pl.sBasis.Equal(ct.C1.Basis) {
		return nil, fmt.Errorf("%w: input basis is not the level-%d chain prefix", ErrNoRescalePlan, l)
	}
	r := ev.params.Ring
	r0, err := r.ModDownNTTWith(pl.rescale, ct.C0)
	if err != nil {
		return nil, err
	}
	r1, err := r.ModDownNTTWith(pl.rescale, ct.C1)
	if err != nil {
		r.PutPoly(r0)
		return nil, err
	}
	return &Ciphertext{C0: r0, C1: r1, Scale: ct.Scale / float64(pl.sBasis.Moduli[l])}, nil
}

// DropLevel truncates the ciphertext to the given (lower) level without
// changing the scale.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level > ct.Level() || level < 0 {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level(), level)
	}
	return ev.copyOf(ct.AtLevel(level)), nil
}

// Rotate rotates the slot vector by k positions using the matching rotation
// key (paper Fig. 5, right: automorphism + keyswitch).
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) (*Ciphertext, error) {
	if k == 0 {
		return ev.copyOf(ct), nil
	}
	if ev.rtks == nil || ev.rtks.Keys[k] == nil {
		return nil, fmt.Errorf("ckks: no rotation key for offset %d", k)
	}
	g := ev.params.Ring.GaloisElementForRotation(k)
	return ev.automorphismKS(ct, g, ev.rtks.Keys[k])
}

// Conjugate applies complex conjugation to the slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	if ev.rtks == nil || ev.rtks.Conj == nil {
		return nil, fmt.Errorf("ckks: no conjugation key")
	}
	g := ev.params.Ring.GaloisElementForConjugation()
	return ev.automorphismKS(ct, g, ev.rtks.Conj)
}

func (ev *Evaluator) automorphismKS(ct *Ciphertext, galEl uint64, key *EvalKey) (*Ciphertext, error) {
	r := ev.params.Ring
	basis := ct.C0.Basis
	s0 := r.GetPolyUninit(basis)
	s1 := r.GetPolyUninit(basis)
	defer r.PutPoly(s1)
	if err := r.Automorphism(ct.C0, galEl, s0); err != nil {
		r.PutPoly(s0)
		return nil, err
	}
	if err := r.Automorphism(ct.C1, galEl, s1); err != nil {
		r.PutPoly(s0)
		return nil, err
	}
	f0, f1, err := ev.keySwitch(s1, key)
	if err != nil {
		r.PutPoly(s0)
		return nil, err
	}
	defer r.PutPoly(f0)
	out := &Ciphertext{C0: s0, C1: f1, Scale: ct.Scale}
	if err := r.Add(s0, f0, s0); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// ErrNoKeySwitchPlan marks a keyswitch no precompiled plan covers: a key
// over a custom digit partition (those ride internal/keyswitch's
// output-aggregation kernels), a key with too few digits for the level, or
// an input off the standard chain prefix.
var ErrNoKeySwitchPlan = errors.New("ckks: no keyswitch plan applies")

// KeySwitch runs the hybrid keyswitching kernel of paper Fig. 4 on a single
// polynomial c (NTT domain, level-l chain basis): digit-decompose, mod-up
// each digit to Q_l ∪ P, inner-product with the evaluation key, and
// mod-down back to Q_l. Returns the two output polynomials in NTT domain.
//
// It is the one-chip case of the per-chip kernel (ksplan.go): the level's
// cached local plan owns all of Q_l, so it runs with zero setup work and
// zero heap allocations once warm — the fused scaled decompose, one absorb
// per digit (the digit's own limbs are read straight from c, already
// NTT-domain), then Finish. The plan covers ciphertexts over the
// standard chain prefix with a default-partition key of enough digits;
// anything else is rejected with ErrNoKeySwitchPlan rather than switched
// under the wrong digit ranges.
func (ev *Evaluator) KeySwitch(c *ring.Poly, evk *EvalKey) (*ring.Poly, *ring.Poly, error) {
	if !c.IsNTT {
		return nil, nil, fmt.Errorf("ckks: KeySwitch input must be NTT")
	}
	pl, err := ev.params.KSPlanAtLevel(c.Basis.Len() - 1)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoKeySwitchPlan, err)
	}
	if !pl.sBasis.Equal(c.Basis) {
		return nil, nil, fmt.Errorf("%w: input basis is not the level-%d chain prefix", ErrNoKeySwitchPlan, pl.level)
	}
	run, err := pl.Start(evk)
	if err != nil {
		return nil, nil, err
	}
	defer run.Release()
	r := ev.params.Ring
	z := r.GetPolyUninit(pl.sBasis)
	defer r.PutPoly(z)
	pl.decompose(c, z)
	for d := range pl.digits {
		dg := &pl.digits[d]
		if err := run.absorb(d, z.Limbs[dg.lo:dg.hi], c.Limbs[dg.lo:dg.hi]); err != nil {
			return nil, nil, err
		}
	}
	return run.Finish()
}

// SetScale brings the ciphertext to exactly the target scale by
// multiplying with the constant 1 encoded at the right plaintext scale and
// rescaling once (costs one level). Use it to normalize the rescaling
// drift before an operation that requires an exact scale, such as
// bootstrapping.
func (ev *Evaluator) SetScale(ct *Ciphertext, target float64) (*Ciphertext, error) {
	if ct.Level() < 1 {
		return nil, fmt.Errorf("ckks: SetScale needs one spare level")
	}
	ptScale := target * ev.TopModulus(ct.Level()) / ct.Scale
	out, err := ev.MulConstAtScale(ct, 1, ptScale)
	if err != nil {
		return nil, err
	}
	if out, err = ev.Rescale(out); err != nil {
		return nil, err
	}
	// The tracked value is exact up to the constant's 2^-30-ish encoding
	// quantization; snap the bookkeeping to the target.
	out.Scale = target
	return out, nil
}

// MulByI multiplies every slot by the imaginary unit i. This is exact and
// free of scale consumption: it multiplies the ciphertext by the monomial
// X^{N/2}, whose canonical embedding is i in every slot.
func (ev *Evaluator) MulByI(ct *Ciphertext) (*Ciphertext, error) {
	r := ev.params.Ring
	mono := r.GetPoly(ct.C0.Basis)
	defer r.PutPoly(mono)
	mono.SetCoeffBig(ev.params.N()/2, big.NewInt(1))
	if err := r.NTT(mono); err != nil {
		return nil, err
	}
	out := ev.newOutput(ct.C0.Basis, ct.Scale)
	if err := r.MulCoeffs(ct.C0, mono, out.C0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.MulCoeffs(ct.C1, mono, out.C1); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// AddConst adds the constant c to every slot. Encoding a constant vector
// needs only two monomials: Δ·Re(c) + Δ·Im(c)·X^{N/2}.
func (ev *Evaluator) AddConst(ct *Ciphertext, c complex128) (*Ciphertext, error) {
	r := ev.params.Ring
	p := r.GetPoly(ct.C0.Basis)
	defer r.PutPoly(p)
	re := big.NewInt(int64(math.Round(real(c) * ct.Scale)))
	im := big.NewInt(int64(math.Round(imag(c) * ct.Scale)))
	p.SetCoeffBig(0, re)
	p.SetCoeffBig(ev.params.N()/2, im)
	if err := r.NTT(p); err != nil {
		return nil, err
	}
	out := &Ciphertext{C0: r.GetPolyUninit(ct.C0.Basis), C1: r.GetPolyCopy(ct.C1), Scale: ct.Scale}
	if err := r.Add(ct.C0, p, out.C0); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}

// ScaleUp multiplies the ciphertext coefficients by the integer k and the
// tracked scale with it, leaving the plaintext values unchanged. It is
// exact (no noise, no level consumed) and is how bootstrapping aligns the
// message scale with q0 before ModRaise.
func (ev *Evaluator) ScaleUp(ct *Ciphertext, k uint64) *Ciphertext {
	r := ev.params.Ring
	out := ev.newOutput(ct.C0.Basis, ct.Scale*float64(k))
	r.MulScalar(ct.C0, k, out.C0)
	r.MulScalar(ct.C1, k, out.C1)
	return out
}

// TopModulus returns the chain modulus consumed by the next rescale at the
// given level, as a float. Encoding plaintext factors at exactly this scale
// makes the following rescale preserve the ciphertext scale exactly.
func (ev *Evaluator) TopModulus(level int) float64 {
	return float64(ev.params.QBasis.Moduli[level])
}

// MulConst multiplies every slot by the constant c, consuming scale like a
// plaintext multiplication (output scale = ct.Scale · Δ); rescale after.
func (ev *Evaluator) MulConst(ct *Ciphertext, c complex128) (*Ciphertext, error) {
	return ev.MulConstAtScale(ct, c, ev.params.DefaultScale())
}

// MulConstAtScale is MulConst with an explicit plaintext encoding scale.
// Pass TopModulus(ct.Level()) to preserve the ciphertext scale exactly
// across the following rescale.
func (ev *Evaluator) MulConstAtScale(ct *Ciphertext, c complex128, scale float64) (*Ciphertext, error) {
	r := ev.params.Ring
	p := r.GetPoly(ct.C0.Basis)
	defer r.PutPoly(p)
	re := big.NewInt(int64(math.Round(real(c) * scale)))
	im := big.NewInt(int64(math.Round(imag(c) * scale)))
	p.SetCoeffBig(0, re)
	p.SetCoeffBig(ev.params.N()/2, im)
	if err := r.NTT(p); err != nil {
		return nil, err
	}
	out := ev.newOutput(ct.C0.Basis, ct.Scale*scale)
	if err := r.MulCoeffs(ct.C0, p, out.C0); err != nil {
		return ev.fail(out, err)
	}
	if err := r.MulCoeffs(ct.C1, p, out.C1); err != nil {
		return ev.fail(out, err)
	}
	return out, nil
}
