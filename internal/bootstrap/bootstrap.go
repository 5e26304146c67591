package bootstrap

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cinnamon/internal/ckks"
	"cinnamon/internal/ring"
)

// Config tunes the bootstrapping circuit.
type Config struct {
	// K bounds the modular-reduction interval: the EvalMod polynomial is
	// accurate for |I| ≤ K wraps. Larger K needs a sparser secret or a
	// higher degree.
	K int
	// DoubleAngle is the number of cosine double-angle foldings (r).
	DoubleAngle int
	// Degree of the Chebyshev approximation of the folded cosine.
	Degree int
	// HeadroomBits H sets the message-to-q0 ratio: the ciphertext is
	// scaled up to ≈ q0/2^H before ModRaise. Larger H reduces the sine
	// linearization distortion but costs message precision.
	HeadroomBits int
	// ArcsineCorrection applies θ ≈ s + s³/6 to each EvalMod output,
	// cancelling the cubic sine distortion sin(θ) ≈ θ − θ³/6 at the cost
	// of three more levels. Worth enabling when messages run close to the
	// headroom bound (large |m|·2^-H), where the distortion dominates.
	ArcsineCorrection bool
}

// DefaultConfig works with sparse secrets (Hamming weight ≲ 64).
func DefaultConfig() Config {
	return Config{K: 16, DoubleAngle: 3, Degree: 39, HeadroomBits: 4}
}

// Precomp holds everything about the bootstrap circuit that does not depend
// on key material: the CoeffToSlot/SlotToCoeff transforms, the EvalMod
// Chebyshev approximation and the scale bookkeeping. One Precomp is shared
// by every tenant's Bootstrapper (the transforms dominate setup cost and
// memory; keys are the only per-tenant part).
type Precomp struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	slots  int
	cfg    Config

	c2s, s2c *LinearTransform
	cheb     *Chebyshev
	scaleUp  uint64  // integer factor f bringing the scale to ≈ q0/2^H
	rho      float64 // (f·Δ)/q0, the exact scale-to-q0 ratio after ScaleUp
}

// Bootstrapper binds a Precomp to one evaluator and, through it, to one key
// set (relinearization + the transform rotations + conjugation).
type Bootstrapper struct {
	pre *Precomp
	ev  *ckks.Evaluator
}

// NewPrecomp builds the key-independent part of the bootstrap circuit for
// full-slot (N/2) bootstrapping.
func NewPrecomp(params *ckks.Parameters, cfg Config) (*Precomp, error) {
	if params.HammingWeight() == 0 || params.HammingWeight() > 192 {
		return nil, fmt.Errorf("bootstrap: requires a sparse secret (HammingWeight in [1,192]), got %d", params.HammingWeight())
	}
	if cfg.K < 2 || cfg.Degree < 7 || cfg.DoubleAngle < 0 || cfg.HeadroomBits < 1 {
		return nil, fmt.Errorf("bootstrap: invalid config %+v", cfg)
	}
	pre := &Precomp{
		params: params,
		enc:    ckks.NewEncoder(params),
		slots:  params.Slots(),
		cfg:    cfg,
	}
	n := pre.slots
	// Build the special-FFT matrix V (decode direction) and its inverse
	// numerically from the encoder's own transform, so the homomorphic DFT
	// matches the encoder exactly.
	V := make([][]complex128, n)
	Vinv := make([][]complex128, n)
	for i := range V {
		V[i] = make([]complex128, n)
		Vinv[i] = make([]complex128, n)
	}
	col := make([]complex128, n)
	for k := 0; k < n; k++ {
		for i := range col {
			col[i] = 0
		}
		col[k] = 1
		pre.enc.SpecialFFT(col)
		for i := 0; i < n; i++ {
			V[i][k] = col[i]
		}
		for i := range col {
			col[i] = 0
		}
		col[k] = 1
		pre.enc.SpecialFFTInv(col)
		for i := 0; i < n; i++ {
			Vinv[i][k] = col[i]
		}
	}
	q0 := float64(params.QBasis.Moduli[0])
	delta := params.DefaultScale()
	// Before ModRaise the ciphertext is scaled up by the integer
	// f = round(q0/(2^H·Δ)), bringing its scale to S0 = f·Δ ≈ q0/2^H.
	// Matrix entries then stay O(1) (no tiny factors that would be crushed
	// by plaintext quantization).
	pre.scaleUp = uint64(math.Round(q0 / (math.Exp2(float64(cfg.HeadroomBits)) * delta)))
	if pre.scaleUp < 2 {
		return nil, fmt.Errorf("bootstrap: q0/Δ ratio too small for %d headroom bits", cfg.HeadroomBits)
	}
	pre.rho = float64(pre.scaleUp) * delta / q0
	// SlotToCoeff folds the EvalMod output normalization: the sine output
	// is ≈ 2π·ρ·τ(v), so v = V·(1/(2πρ))·t'.
	s2cFac := complex(1/(2*math.Pi*pre.rho), 0)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			V[i][k] *= s2cFac
		}
	}
	var err error
	if pre.c2s, err = NewLinearTransform(Vinv); err != nil {
		return nil, err
	}
	if pre.s2c, err = NewLinearTransform(V); err != nil {
		return nil, err
	}
	// EvalMod polynomial: CoeffToSlot leaves slot values u = 2x/ρ where
	// x = coefficient/q0, so we fit h(u) = cos(π(ρ·u − 0.5)/2^r) over
	// u ∈ ±(2K+1)/ρ; r double-angle steps then give
	// cos(π·ρ·u − π/2) = sin(2π·x).
	bound := float64(2*cfg.K+1) / pre.rho
	r := cfg.DoubleAngle
	rho := pre.rho
	pre.cheb = FitChebyshev(func(u float64) float64 {
		return math.Cos(math.Pi * (rho*u - 0.5) / math.Exp2(float64(r)))
	}, -bound, bound, cfg.Degree)
	return pre, nil
}

// Config returns the circuit configuration.
func (pre *Precomp) Config() Config { return pre.cfg }

// Params returns the parameters the circuit was built for.
func (pre *Precomp) Params() *ckks.Parameters { return pre.params }

// Rotations returns the deduplicated, sorted slot offsets whose rotation
// keys the bootstrap circuit needs (union of both transforms).
func (pre *Precomp) Rotations() []int {
	set := map[int]bool{}
	for _, k := range pre.c2s.Rotations() {
		set[k] = true
	}
	for _, k := range pre.s2c.Rotations() {
		set[k] = true
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Consumed returns the exact number of levels one bootstrap burns below
// MaxLevel: CoeffToSlot rescale (1), Chebyshev normalization (1), the
// Paterson–Stockmeyer tree (⌈log2(Degree+1)⌉), the double-angle foldings
// (r), the SlotToCoeff rescale (1), plus three for the optional arcsine
// correction. The end-to-end test pins this against evaluator reality.
func (pre *Precomp) Consumed() int {
	chebDepth := 0
	for d := 1; d < pre.cfg.Degree+1; d <<= 1 {
		chebDepth++
	}
	consumed := 3 + chebDepth + pre.cfg.DoubleAngle
	if pre.cfg.ArcsineCorrection {
		consumed += 3
	}
	return consumed
}

// ExitLevel returns the level a freshly bootstrapped ciphertext lands on.
func (pre *Precomp) ExitLevel() int { return pre.params.MaxLevel() - pre.Consumed() }

// ErrMissingKeys marks an evaluator that lacks a key the circuit needs.
var ErrMissingKeys = errors.New("bootstrap: evaluator is missing required keys")

// Bind binds the shared circuit to ev — the one way a Bootstrapper is made.
// Bootstrap then runs every operation on ev, so its keyswitches go wherever
// ev's KeySwitcher sends them. ev must hold the relinearization key, the
// conjugation key and a rotation key for every offset in pre.Rotations();
// otherwise Bind fails with ErrMissingKeys naming the absent ids.
func (pre *Precomp) Bind(ev *ckks.Evaluator) (*Bootstrapper, error) {
	if missing := ev.MissingKeys(pre.Rotations()); len(missing) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrMissingKeys, missing)
	}
	return &Bootstrapper{pre: pre, ev: ev}, nil
}

// NewBootstrapper precomputes the CoeffToSlot/SlotToCoeff transforms for
// full-slot (N/2) bootstrapping and generates the rotation, conjugation and
// relinearization keys it needs from sk.
func NewBootstrapper(params *ckks.Parameters, sk *ckks.SecretKey, cfg Config) (*Bootstrapper, error) {
	pre, err := NewPrecomp(params, cfg)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(params)
	rtks, err := kg.GenRotationKeySet(sk, pre.Rotations(), true)
	if err != nil {
		return nil, err
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		return nil, err
	}
	return pre.Bind(ckks.NewEvaluator(params, rlk, rtks))
}

// Evaluator exposes the bound evaluator (it holds every key the bootstrap
// circuit needs, which examples often reuse).
func (bs *Bootstrapper) Evaluator() *ckks.Evaluator { return bs.ev }

// Precomp exposes the shared key-independent circuit.
func (bs *Bootstrapper) Precomp() *Precomp { return bs.pre }

// Bootstrap refreshes ct (which must be at level 0) back to a high level:
// the returned ciphertext encrypts the same slot values with
// pre.ExitLevel() levels remaining. Every evaluator operation is
// deterministic and the only shared state (the transforms' encoded
// diagonals) is guarded, so any number of Bootstrap calls — same or
// different Bootstrappers over one Precomp — may run concurrently and each
// returns the bits it would have returned alone.
func (bs *Bootstrapper) Bootstrap(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	pre := bs.pre
	if err := bs.validate(ct); err != nil {
		return nil, err
	}
	// ScaleUp to ≈ q0/2^H, then ModRaise into the full chain: Dec becomes
	// S0·m + q0·I with small integer I.
	// Each stage's input is dead once its output exists: then releases it.
	ev := bs.ev
	raised, err := then(ev, ev.ScaleUp(ct, pre.scaleUp), bs.modRaise)
	if err != nil {
		return nil, err
	}
	// CoeffToSlot + rescale: slots now hold x_j = Δm_j/q0 + I_j (complex
	// pairs).
	lin := func(lt *LinearTransform) func(*ckks.Ciphertext) (*ckks.Ciphertext, error) {
		return func(c *ckks.Ciphertext) (*ckks.Ciphertext, error) { return lt.Evaluate(ev, pre.enc, c) }
	}
	t, err := then(ev, raised, lin(pre.c2s))
	if err != nil {
		return nil, err
	}
	if t, err = then(ev, t, ev.Rescale); err != nil {
		return nil, err
	}
	comb, err := then(ev, t, bs.evalModSplit)
	if err != nil {
		return nil, err
	}
	// SlotToCoeff + rescale restores the original slot values at the exit
	// level.
	out, err := then(ev, comb, lin(pre.s2c))
	if err != nil {
		return nil, err
	}
	if out, err = then(ev, out, ev.Rescale); err != nil {
		return nil, err
	}
	// The composed circuit scale lands near Δ but not on it (the exact
	// value threads every prime and constant in the circuit); snap to the
	// exact default so downstream multiply chains don't amplify the
	// declaration drift past the evaluator's scale check. The relative
	// value error this folds in (≲1e-4) is far below the circuit's own
	// sine-approximation error.
	delta := pre.params.DefaultScale()
	if math.Abs(out.Scale-delta) > 1e-4*delta {
		ev.Release(out)
		return nil, fmt.Errorf("bootstrap: exit scale %g drifted beyond tolerance of the default %g", out.Scale, delta)
	}
	out.Scale = delta
	return out, nil
}

// BatchItem and BootstrapBatch are vestigial: there is no batched bootstrap,
// only this loop over Bootstrap. They stay because the frozen benchmark
// (bench/layers.go, bootstrap.batch2_ms_per_item) compiles against them;
// drop both once a benchmark PR drops that metric (ROADMAP item 4b).
type BatchItem struct {
	BS      *Bootstrapper
	CT, Out *ckks.Ciphertext
	Err     error
}

// BootstrapBatch bootstraps each item in turn; failures are per item.
func BootstrapBatch(items []*BatchItem) {
	for _, it := range items {
		if it.BS == nil {
			it.Err = fmt.Errorf("bootstrap: batch item has nil Bootstrapper")
			continue
		}
		it.Out, it.Err = it.BS.Bootstrap(it.CT)
	}
}

// validate checks the bootstrap input contract: level 0, default scale.
func (bs *Bootstrapper) validate(ct *ckks.Ciphertext) error {
	if ct.Level() != 0 {
		return fmt.Errorf("bootstrap: input must be at level 0, got %d", ct.Level())
	}
	delta := bs.pre.params.DefaultScale()
	if !closeTo(ct.Scale, delta) {
		return fmt.Errorf("bootstrap: input scale %g must be the default scale %g", ct.Scale, delta)
	}
	return nil
}

// closeTo reports approximate equality within 1e-6 relative tolerance.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// evalMod evaluates the Chebyshev cosine and applies the double-angle
// foldings c ← 2c² − 1 (r times), then optionally the arcsine correction.
// Every temporary goes back to the ring's pool at its last use; ct is left
// as it came.
func (bs *Bootstrapper) evalMod(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	ev := bs.ev
	c, err := EvalChebyshev(ev, ct, bs.pre.cheb)
	if err != nil {
		return nil, err
	}
	square := func(p *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		sq, err := ev.MulRelin(p, p)
		if err != nil {
			return nil, err
		}
		return then(ev, sq, ev.Rescale)
	}
	for i := 0; i < bs.pre.cfg.DoubleAngle; i++ {
		sq, err := then(ev, c, square)
		if err != nil {
			return nil, err
		}
		if sq, err = then(ev, sq, double(ev)); err != nil {
			return nil, err
		}
		if c, err = then(ev, sq, addConst(ev, -1)); err != nil {
			return nil, err
		}
	}
	if !bs.pre.cfg.ArcsineCorrection {
		return c, nil
	}
	// θ = asin(s) ≈ s + s³/6: evaluate s·(1 + s²/6) so the downstream
	// linear extraction sees θ = 2π·x instead of sin(2π·x).
	s2, err := square(c)
	if err != nil {
		ev.Release(c)
		return nil, err
	}
	s2, err = then(ev, s2, func(s2 *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		return ev.MulConstAtScale(s2, complex(1.0/6.0, 0), ev.TopModulus(s2.Level()))
	})
	if err == nil {
		s2, err = then(ev, s2, ev.Rescale)
	}
	if err == nil {
		s2, err = then(ev, s2, addConst(ev, 1))
	}
	if err != nil {
		ev.Release(c)
		return nil, err
	}
	defer ev.Release(s2)
	out, err := then(ev, c, func(c *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.MulRelin(alignLevels(c, s2)) })
	if err != nil {
		return nil, err
	}
	return then(ev, out, ev.Rescale)
}

// evalModSplit is the middle of the pipeline: conjugate split into 2·Re and
// 2·Im, EvalMod on both halves (u = 2x ∈ [−2K, 2K] → sin(2πx)), and the
// recombination t' = re' + i·im'. Its temporaries go back to the ring's
// pool; t is left as it came.
func (bs *Bootstrapper) evalModSplit(t *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	ev := bs.ev
	tc, err := ev.Conjugate(t)
	if err != nil {
		return nil, err
	}
	re2, err := ev.Add(t, tc)
	if err != nil {
		ev.Release(tc)
		return nil, err
	}
	imDiff, err := then(ev, tc, func(tc *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.Sub(tc, t) })
	if err != nil {
		ev.Release(re2)
		return nil, err
	}
	im2, err := then(ev, imDiff, ev.MulByI) // (conj−t)·i = 2·Im(t)
	if err != nil {
		ev.Release(re2)
		return nil, err
	}
	reMod, err := then(ev, re2, bs.evalMod)
	if err != nil {
		ev.Release(im2)
		return nil, err
	}
	defer ev.Release(reMod)
	imMod, err := then(ev, im2, bs.evalMod)
	if err != nil {
		return nil, err
	}
	imI, err := then(ev, imMod, ev.MulByI)
	if err != nil {
		return nil, err
	}
	return then(ev, imI, func(imI *ckks.Ciphertext) (*ckks.Ciphertext, error) { return ev.Add(alignLevels(reMod, imI)) })
}

// modRaise lifts a level-0 ciphertext to the full chain by re-expressing
// each centered coefficient residue in every chain modulus.
func (bs *Bootstrapper) modRaise(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	r := bs.pre.params.Ring
	topBasis, err := bs.pre.params.BasisAtLevel(bs.pre.params.MaxLevel())
	if err != nil {
		return nil, err
	}
	q0 := bs.pre.params.QBasis.Moduli[0]
	raise := func(p *ring.Poly) (*ring.Poly, error) {
		cp := r.GetPolyCopy(p)
		defer r.PutPoly(cp)
		if err := r.INTT(cp); err != nil {
			return nil, err
		}
		out := r.GetPolyUninit(topBasis)
		src := cp.Limbs[0]
		for i, c := range src {
			v := int64(c)
			if c > q0/2 {
				v = int64(c) - int64(q0)
			}
			for j, q := range topBasis.Moduli {
				if v >= 0 {
					out.Limbs[j][i] = uint64(v) % q
				} else if rem := uint64(-v) % q; rem == 0 {
					out.Limbs[j][i] = 0
				} else {
					out.Limbs[j][i] = q - rem
				}
			}
		}
		if err := r.NTT(out); err != nil {
			r.PutPoly(out)
			return nil, err
		}
		return out, nil
	}
	c0, err := raise(ct.C0)
	if err != nil {
		return nil, err
	}
	c1, err := raise(ct.C1)
	if err != nil {
		r.PutPoly(c0)
		return nil, err
	}
	return &ckks.Ciphertext{C0: c0, C1: c1, Scale: ct.Scale}, nil
}
