package keyswitch

import (
	"math/rand"
	"sync"
	"testing"

	"cinnamon/internal/ckks"
)

// Benchmarks for the parallel keyswitching algorithms at functional scale.
// These measure the Go implementation itself (useful for regression
// tracking); the paper-scale timing numbers come from internal/sim.

func benchContext(b *testing.B) (*ksContext, *ckks.Ciphertext) {
	b.Helper()
	tc := newKSContext(b, nil)
	_, ct := tc.encryptRandom(b, 64, 1)
	return tc, ct
}

func BenchmarkKeySwitchSequential(b *testing.B) {
	tc, ct := benchContext(b)
	eng, _ := NewEngine(tc.params, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.KeySwitch(ct.C1, tc.rlk, Sequential); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeySwitchInputBroadcast4(b *testing.B) {
	tc, ct := benchContext(b)
	eng, _ := NewEngine(tc.params, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.KeySwitch(ct.C1, tc.rlk, InputBroadcast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeySwitchOutputAggregation4(b *testing.B) {
	tc, ct := benchContext(b)
	eng, _ := NewEngine(tc.params, 4)
	r := tc.params.Ring
	s2 := r.NewPoly(tc.params.QPBasis())
	if err := r.MulCoeffs(tc.sk.S, tc.sk.S, s2); err != nil {
		b.Fatal(err)
	}
	rlkMod, err := tc.kg.GenEvalKeyDigits(s2, tc.sk, ModularDigitSets(tc.params, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.KeySwitch(ct.C1, rlkMod, OutputAggregation); err != nil {
			b.Fatal(err)
		}
	}
}

// Core benchmarks at serving scale: N = 2^12 with a 9-limb chain. The
// context is built once and shared across -cpu variants (key generation at
// this size dominates otherwise).

var (
	coreCtxOnce sync.Once
	coreCtx     *ksContext
	coreCtxErr  error
)

func coreBenchContext(b *testing.B) *ksContext {
	b.Helper()
	coreCtxOnce.Do(func() {
		params, err := ckks.NewParameters(ckks.ParametersLiteral{
			LogN:     12,
			LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45, 45},
			LogP:     []int{58, 58},
			LogScale: 45,
			Seed:     777,
		})
		if err != nil {
			coreCtxErr = err
			return
		}
		kg := ckks.NewKeyGenerator(params)
		sk, err := kg.GenSecretKey()
		if err != nil {
			coreCtxErr = err
			return
		}
		pk, err := kg.GenPublicKey(sk)
		if err != nil {
			coreCtxErr = err
			return
		}
		rlk, err := kg.GenRelinKey(sk)
		if err != nil {
			coreCtxErr = err
			return
		}
		coreCtx = &ksContext{
			params: params,
			enc:    ckks.NewEncoder(params),
			kg:     kg,
			sk:     sk,
			pk:     pk,
			rlk:    rlk,
			encr:   ckks.NewEncryptor(params, pk),
			decr:   ckks.NewDecryptor(params, sk),
			ev:     ckks.NewEvaluator(params, rlk, nil),
		}
	})
	if coreCtxErr != nil {
		b.Fatal(coreCtxErr)
	}
	return coreCtx
}

func BenchmarkCoreKeySwitch(b *testing.B) {
	tc := coreBenchContext(b)
	_, ct := tc.encryptRandom(b, 256, 1)
	eng, _ := NewEngine(tc.params, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.KeySwitch(ct.C1, tc.rlk, Sequential); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreKeySwitchInputBroadcast4(b *testing.B) {
	tc := coreBenchContext(b)
	_, ct := tc.encryptRandom(b, 256, 2)
	eng, _ := NewEngine(tc.params, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.KeySwitch(ct.C1, tc.rlk, InputBroadcast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreEncodeEvalDecode measures a full round trip: encode two
// vectors, encrypt, multiply-relinearize, rescale, decrypt, decode —
// exercising NTT, Barrett pointwise kernels, keyswitch and rescale in one
// end-to-end number.
func BenchmarkCoreEncodeEvalDecode(b *testing.B) {
	tc := coreBenchContext(b)
	slots := 256
	rng := rand.New(rand.NewSource(3))
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			b.Fatal(err)
		}
		ct, err := tc.encr.Encrypt(pt)
		if err != nil {
			b.Fatal(err)
		}
		prod, err := tc.ev.MulRelin(ct, ct)
		if err != nil {
			b.Fatal(err)
		}
		if prod, err = tc.ev.Rescale(prod); err != nil {
			b.Fatal(err)
		}
		dec, err := tc.decr.Decrypt(prod)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tc.enc.Decode(dec, slots); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHoistedRotations8(b *testing.B) {
	rots := []int{1, 2, 3, 4, 5, 6, 7, 8}
	tc := newKSContext(b, rots)
	_, ct := tc.encryptRandom(b, 64, 2)
	rtks, err := tc.kg.GenRotationKeySet(tc.sk, rots, false)
	if err != nil {
		b.Fatal(err)
	}
	eng, _ := NewEngine(tc.params, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.HoistedRotations(ct, rots, rtks); err != nil {
			b.Fatal(err)
		}
	}
}
