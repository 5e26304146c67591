package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// testContext bundles everything a scheme test needs.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *EvalKey
	encr   *Encryptor
	decr   *Decryptor
	ev     *Evaluator
}

func newTestContext(t testing.TB, rotations []int) *testContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     11,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	var rtks *RotationKeySet
	if rotations != nil {
		rtks, err = kg.GenRotationKeySet(sk, rotations, true)
		if err != nil {
			t.Fatal(err)
		}
	}
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		encr:   NewEncryptor(params, pk),
		decr:   NewDecryptor(params, sk),
		ev:     NewEvaluator(params, rlk, rtks),
	}
}

func randomComplex(n int, bound float64, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
	}
	return v
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func (tc *testContext) decryptDecode(t testing.TB, ct *Ciphertext, slots int) []complex128 {
	t.Helper()
	pt, err := tc.decr.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tc.enc.Decode(pt, slots)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParametersValidation(t *testing.T) {
	base := ParametersLiteral{LogN: 5, LogQ: []int{45, 40}, LogP: []int{50}, LogScale: 40}
	if _, err := NewParameters(base); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.LogN = 2
	if _, err := NewParameters(bad); err == nil {
		t.Fatal("expected LogN error")
	}
	bad = base
	bad.LogQ = nil
	if _, err := NewParameters(bad); err == nil {
		t.Fatal("expected empty chain error")
	}
	bad = base
	bad.LogP = nil
	if _, err := NewParameters(bad); err == nil {
		t.Fatal("expected empty special error")
	}
	bad = base
	bad.LogScale = 5
	if _, err := NewParameters(bad); err == nil {
		t.Fatal("expected scale error")
	}
}

func TestParameterAccessors(t *testing.T) {
	p, err := NewParameters(ParametersLiteral{LogN: 6, LogQ: []int{45, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 64 || p.Slots() != 32 || p.MaxLevel() != 3 {
		t.Fatalf("accessors: N=%d slots=%d maxLevel=%d", p.N(), p.Slots(), p.MaxLevel())
	}
	if p.Alpha() != 2 || p.Digits() != 2 {
		t.Fatalf("alpha=%d digits=%d", p.Alpha(), p.Digits())
	}
	// Digit ranges at max level: [0,2), [2,4).
	lo, hi, ok := p.DigitRange(0, 3)
	if !ok || lo != 0 || hi != 2 {
		t.Fatalf("digit 0 range (%d,%d,%v)", lo, hi, ok)
	}
	lo, hi, ok = p.DigitRange(1, 3)
	if !ok || lo != 2 || hi != 4 {
		t.Fatalf("digit 1 range (%d,%d,%v)", lo, hi, ok)
	}
	// At level 1 the second digit is empty.
	if _, _, ok := p.DigitRange(1, 1); ok {
		t.Fatal("digit 1 should be empty at level 1")
	}
	// All moduli distinct across Q and P.
	seen := map[uint64]bool{}
	for _, q := range p.QPBasis().Moduli {
		if seen[q] {
			t.Fatalf("duplicate modulus %d", q)
		}
		seen[q] = true
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	for _, slots := range []int{1, 8, tc.params.Slots()} {
		want := randomComplex(slots, 1.0, int64(slots))
		pt, err := tc.enc.Encode(want, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.enc.Decode(pt, slots)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(want, got); e > 1e-8 {
			t.Fatalf("slots=%d: encode/decode error %g", slots, e)
		}
	}
	if _, err := tc.enc.Encode(make([]complex128, 3), 0, tc.params.DefaultScale()); err == nil {
		t.Fatal("expected non-power-of-two slot error")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := tc.params.Slots()
	want := randomComplex(slots, 1.0, 5)
	pt, err := tc.enc.Encode(want, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.decryptDecode(t, ct, slots)
	if e := maxErr(want, got); e > 1e-6 {
		t.Fatalf("fresh encryption error %g", e)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := 64
	va := randomComplex(slots, 1.0, 7)
	vb := randomComplex(slots, 1.0, 8)
	cta := tc.encrypt(t, va)
	ctb := tc.encrypt(t, vb)
	sum, err := tc.ev.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := tc.ev.Sub(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := make([]complex128, slots)
	wantDiff := make([]complex128, slots)
	for i := range va {
		wantSum[i] = va[i] + vb[i]
		wantDiff[i] = va[i] - vb[i]
	}
	if e := maxErr(wantSum, tc.decryptDecode(t, sum, slots)); e > 1e-6 {
		t.Fatalf("add error %g", e)
	}
	if e := maxErr(wantDiff, tc.decryptDecode(t, diff, slots)); e > 1e-6 {
		t.Fatalf("sub error %g", e)
	}
	neg := tc.ev.Neg(cta)
	wantNeg := make([]complex128, slots)
	for i := range va {
		wantNeg[i] = -va[i]
	}
	if e := maxErr(wantNeg, tc.decryptDecode(t, neg, slots)); e > 1e-6 {
		t.Fatalf("neg error %g", e)
	}
}

func (tc *testContext) encrypt(t testing.TB, v []complex128) *Ciphertext {
	t.Helper()
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestHomomorphicMulRelinRescale(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := 64
	va := randomComplex(slots, 1.0, 9)
	vb := randomComplex(slots, 1.0, 10)
	cta := tc.encrypt(t, va)
	ctb := tc.encrypt(t, vb)
	prod, err := tc.ev.MulRelin(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = tc.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Level() != tc.params.MaxLevel()-1 {
		t.Fatalf("level after rescale = %d", prod.Level())
	}
	want := make([]complex128, slots)
	for i := range va {
		want[i] = va[i] * vb[i]
	}
	if e := maxErr(want, tc.decryptDecode(t, prod, slots)); e > 1e-4 {
		t.Fatalf("mul error %g", e)
	}
}

func TestMultiplicativeDepth(t *testing.T) {
	// Square repeatedly down the whole chain: x^(2^depth).
	tc := newTestContext(t, nil)
	slots := 16
	v := randomComplex(slots, 0.9, 11)
	ct := tc.encrypt(t, v)
	want := append([]complex128(nil), v...)
	for ct.Level() > 0 {
		var err error
		ct, err = tc.ev.MulRelin(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		ct, err = tc.ev.Rescale(ct)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] *= want[i]
		}
	}
	if e := maxErr(want, tc.decryptDecode(t, ct, slots)); e > 1e-2 {
		t.Fatalf("deep circuit error %g", e)
	}
	if _, err := tc.ev.Rescale(ct); err == nil {
		t.Fatal("expected level-0 rescale error")
	}
}

func TestMulPlainAndAddPlain(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := 32
	va := randomComplex(slots, 1.0, 12)
	vb := randomComplex(slots, 1.0, 13)
	ct := tc.encrypt(t, va)
	ptb, err := tc.enc.Encode(vb, ct.Level(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := tc.ev.AddPlain(ct, ptb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = va[i] + vb[i]
	}
	if e := maxErr(want, tc.decryptDecode(t, sum, slots)); e > 1e-6 {
		t.Fatalf("addplain error %g", e)
	}
	prod, err := tc.ev.MulPlain(ct, ptb)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = tc.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = va[i] * vb[i]
	}
	if e := maxErr(want, tc.decryptDecode(t, prod, slots)); e > 1e-4 {
		t.Fatalf("mulplain error %g", e)
	}
}

func TestRotationAndConjugation(t *testing.T) {
	rots := []int{1, 2, 5, -1}
	tc := newTestContext(t, rots)
	slots := tc.params.Slots()
	v := randomComplex(slots, 1.0, 14)
	ct := tc.encrypt(t, v)
	for _, k := range rots {
		rot, err := tc.ev.Rotate(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, slots)
		for i := range want {
			want[i] = v[((i+k)%slots+slots)%slots]
		}
		if e := maxErr(want, tc.decryptDecode(t, rot, slots)); e > 1e-4 {
			t.Fatalf("rotation %d error %g", k, e)
		}
	}
	conj, err := tc.ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = cmplx.Conj(v[i])
	}
	if e := maxErr(want, tc.decryptDecode(t, conj, slots)); e > 1e-4 {
		t.Fatalf("conjugation error %g", e)
	}
	if _, err := tc.ev.Rotate(ct, 3); err == nil {
		t.Fatal("expected missing-rotation-key error")
	}
}

func TestRotateZeroIsIdentity(t *testing.T) {
	tc := newTestContext(t, []int{1})
	v := randomComplex(8, 1.0, 15)
	ct := tc.encrypt(t, v)
	rot, err := tc.ev.Rotate(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(v, tc.decryptDecode(t, rot, 8)); e > 1e-6 {
		t.Fatalf("rotate-0 error %g", e)
	}
}

func TestAddMulConst(t *testing.T) {
	tc := newTestContext(t, nil)
	slots := 16
	v := randomComplex(slots, 1.0, 16)
	ct := tc.encrypt(t, v)
	c := complex(0.5, -0.25)
	added, err := tc.ev.AddConst(ct, c)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = v[i] + c
	}
	if e := maxErr(want, tc.decryptDecode(t, added, slots)); e > 1e-6 {
		t.Fatalf("addconst error %g", e)
	}
	mul, err := tc.ev.MulConst(ct, c)
	if err != nil {
		t.Fatal(err)
	}
	mul, err = tc.ev.Rescale(mul)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = v[i] * c
	}
	if e := maxErr(want, tc.decryptDecode(t, mul, slots)); e > 1e-4 {
		t.Fatalf("mulconst error %g", e)
	}
}

func TestLevelAndScaleMismatchErrors(t *testing.T) {
	tc := newTestContext(t, nil)
	v := randomComplex(8, 1.0, 17)
	a := tc.encrypt(t, v)
	b := tc.encrypt(t, v)
	dropped, err := tc.ev.DropLevel(b, b.Level()-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ev.Add(a, dropped); err == nil {
		t.Fatal("expected level mismatch")
	}
	scaled := b.Copy()
	scaled.Scale *= 2
	if _, err := tc.ev.Add(a, scaled); err == nil {
		t.Fatal("expected scale mismatch")
	}
	if _, err := tc.ev.DropLevel(a, a.Level()+1); err == nil {
		t.Fatal("expected drop-level range error")
	}
}

func TestHomomorphicDotProductWithRotations(t *testing.T) {
	// Rotate-and-add tree sums all slots: a common FHE kernel pattern.
	rots := []int{1, 2, 4, 8}
	tc := newTestContext(t, rots)
	slots := 16
	v := randomComplex(slots, 1.0, 18)
	ct := tc.encrypt(t, v)
	var total complex128
	for _, x := range v {
		total += x
	}
	for k := 1; k < slots; k <<= 1 {
		rot, err := tc.ev.Rotate(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		ct, err = tc.ev.Add(ct, rot)
		if err != nil {
			t.Fatal(err)
		}
	}
	got := tc.decryptDecode(t, ct, slots)
	if e := cmplx.Abs(got[0] - total); e > 1e-4 {
		t.Fatalf("slot-sum error %g", e)
	}
}

func TestDecryptNoiseBudget(t *testing.T) {
	// Fresh ciphertext noise should be tiny relative to the scale.
	tc := newTestContext(t, nil)
	v := make([]complex128, 8) // zeros
	ct := tc.encrypt(t, v)
	got := tc.decryptDecode(t, ct, 8)
	for i, g := range got {
		if cmplx.Abs(g) > 1e-6 {
			t.Fatalf("slot %d noise %g too large", i, cmplx.Abs(g))
		}
	}
}

func TestScaleTracking(t *testing.T) {
	tc := newTestContext(t, nil)
	v := randomComplex(8, 1.0, 19)
	ct := tc.encrypt(t, v)
	if math.Abs(ct.Scale-tc.params.DefaultScale()) > 1 {
		t.Fatalf("fresh scale %g", ct.Scale)
	}
	prod, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if want := ct.Scale * ct.Scale; math.Abs(prod.Scale-want)/want > 1e-12 {
		t.Fatalf("product scale %g, want %g", prod.Scale, want)
	}
	res, err := tc.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	ql := float64(tc.params.QBasis.Moduli[tc.params.MaxLevel()])
	if want := prod.Scale / ql; math.Abs(res.Scale-want)/want > 1e-12 {
		t.Fatalf("rescaled scale %g, want %g", res.Scale, want)
	}
}

// TestSharedEncoderAcrossEvaluators: two goroutines, each with its own
// evaluator, encode and decode through one encoder at once (run under
// -race: an Encoder is read-only once built, so callers may share it),
// and every plaintext and sum equals the one computed alone.
func TestSharedEncoderAcrossEvaluators(t *testing.T) {
	tc := newTestContext(t, nil)
	enc := NewEncoder(tc.params)
	vals := [][]complex128{randomComplex(tc.params.Slots(), 1, 5), randomComplex(tc.params.Slots(), 1, 6)}
	want := make([]*Plaintext, len(vals))
	for g, v := range vals {
		pt, err := enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		want[g] = pt
	}
	ct, err := tc.encr.Encrypt(want[0])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := tc.ev.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(vals))
	for g := range vals {
		go func(g int) {
			errs <- func() error {
				ev := NewEvaluator(tc.params, tc.rlk, nil)
				for range 4 {
					pt, err := enc.Encode(vals[g], tc.params.MaxLevel(), tc.params.DefaultScale())
					if err != nil {
						return err
					}
					if !pt.Poly.Equal(want[g].Poly) {
						return fmt.Errorf("goroutine %d: shared-encoder plaintext differs from the serial one", g)
					}
					if _, err := enc.Decode(pt, len(vals[g])); err != nil {
						return err
					}
					s, err := ev.Add(ct, ct)
					if err != nil {
						return err
					}
					if !s.C0.Equal(sum.C0) || !s.C1.Equal(sum.C1) {
						return fmt.Errorf("goroutine %d: sum differs from the serial one", g)
					}
				}
				return nil
			}()
		}(g)
	}
	for range vals {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
