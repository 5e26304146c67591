package keyswitch

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"cinnamon/internal/ckks"
)

type ksContext struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	kg     *ckks.KeyGenerator
	sk     *ckks.SecretKey
	pk     *ckks.PublicKey
	rlk    *ckks.EvalKey
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	ev     *ckks.Evaluator
}

func newKSContext(t testing.TB, rotations []int) *ksContext {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     10,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Seed:     4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params)
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
	var rtks *ckks.RotationKeySet
	if rotations != nil {
		rtks, err = kg.GenRotationKeySet(sk, rotations, false)
		if err != nil {
			t.Fatal(err)
		}
	}
	return &ksContext{
		params: params,
		enc:    ckks.NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		encr:   ckks.NewEncryptor(params, pk),
		decr:   ckks.NewDecryptor(params, sk),
		ev:     ckks.NewEvaluator(params, rlk, rtks),
	}
}

func (tc *ksContext) encryptRandom(t testing.TB, slots int, seed int64) ([]complex128, *ckks.Ciphertext) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return v, ct
}

// TestInputBroadcastBitExact: the input-broadcast algorithm must reproduce
// the sequential keyswitch output exactly, limb for limb, at every level
// and chip count. Both run the ckks plan kernel — Sequential its local plan
// (scaled decompose, full-basis absorb), InputBroadcast one plan per chip
// fed coefficient-domain digits — so this
// pins the restriction to owned limbs (including chips that own none at
// low levels); the kernel's own oracle is ckks's unfused reference
// (TestKeySwitchMatchesUnfusedReference). Both emit canonical residues,
// which are unique.
func TestInputBroadcastBitExact(t *testing.T) {
	tc := newKSContext(t, nil)
	r := tc.params.Ring
	for _, nChips := range []int{1, 2, 3, 4, 8} {
		eng, err := NewEngine(tc.params, nChips)
		if err != nil {
			t.Fatal(err)
		}
		_, ct := tc.encryptRandom(t, 64, int64(nChips))
		cur := ct.C1
		for level := tc.params.MaxLevel(); level >= 0; level-- {
			seq0, seq1, _, err := eng.KeySwitch(cur, tc.rlk, Sequential)
			if err != nil {
				t.Fatal(err)
			}
			ib0, ib1, stats, err := eng.KeySwitch(cur, tc.rlk, InputBroadcast)
			if err != nil {
				t.Fatal(err)
			}
			if !ib0.Equal(seq0) || !ib1.Equal(seq1) {
				t.Fatalf("nChips=%d level=%d: input broadcast output differs from sequential", nChips, level)
			}
			if stats.Broadcasts != 1 {
				t.Fatalf("nChips=%d level=%d: expected 1 broadcast, got %d", nChips, level, stats.Broadcasts)
			}
			// Chips beyond the level's limb count own nothing and sit out.
			active := min(nChips, level+1)
			if want := (level + 1) * (active - 1); stats.LimbsMoved != want {
				t.Fatalf("nChips=%d level=%d: moved %d limbs, want %d", nChips, level, stats.LimbsMoved, want)
			}
			if level == 0 {
				break
			}
			// Next level: truncate to the lower chain prefix (not a
			// rescale — the basis is all KeySwitch cares about).
			b, err := tc.params.BasisAtLevel(level - 1)
			if err != nil {
				t.Fatal(err)
			}
			next := r.NewPoly(b)
			next.IsNTT = true
			for j := range next.Limbs {
				copy(next.Limbs[j], cur.Limbs[j])
			}
			cur = next
		}
	}
}

// TestCiFHERBitExactWithHigherComm: the CiFHER baseline computes the same
// result but pays three broadcasts.
func TestCiFHERBitExactWithHigherComm(t *testing.T) {
	tc := newKSContext(t, nil)
	eng, err := NewEngine(tc.params, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, ct := tc.encryptRandom(t, 64, 7)
	seq0, seq1, _, err := eng.KeySwitch(ct.C1, tc.rlk, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	cf0, cf1, stats, err := eng.KeySwitch(ct.C1, tc.rlk, CiFHER)
	if err != nil {
		t.Fatal(err)
	}
	if !cf0.Equal(seq0) || !cf1.Equal(seq1) {
		t.Fatal("CiFHER output differs from sequential")
	}
	if stats.Broadcasts != 3 {
		t.Fatalf("expected 3 broadcasts, got %d", stats.Broadcasts)
	}
	ibStats := CommStats{}
	_, _, ibStats, err = eng.KeySwitch(ct.C1, tc.rlk, InputBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LimbsMoved <= ibStats.LimbsMoved {
		t.Fatalf("CiFHER moved %d limbs, input broadcast %d: baseline should cost more", stats.LimbsMoved, ibStats.LimbsMoved)
	}
}

// TestOutputAggregationDecryptsCorrectly: output aggregation reorders
// mod-down and aggregation, so we check semantic equivalence through a
// full homomorphic multiplication.
func TestOutputAggregationDecryptsCorrectly(t *testing.T) {
	tc := newKSContext(t, nil)
	nChips := 4
	eng, err := NewEngine(tc.params, nChips)
	if err != nil {
		t.Fatal(err)
	}
	// Relinearization key in modular-digit format.
	r := tc.params.Ring
	s2 := r.NewPoly(tc.params.QPBasis())
	if err := r.MulCoeffs(tc.sk.S, tc.sk.S, s2); err != nil {
		t.Fatal(err)
	}
	rlkMod, err := tc.kg.GenEvalKeyDigits(s2, tc.sk, ModularDigitSets(tc.params, nChips))
	if err != nil {
		t.Fatal(err)
	}
	va, cta := tc.encryptRandom(t, 64, 8)
	vb, ctb := tc.encryptRandom(t, 64, 9)
	// Tensor then keyswitch d2 with output aggregation, mirroring MulRelin.
	basis := cta.C0.Basis
	d0 := r.NewPoly(basis)
	d1 := r.NewPoly(basis)
	d2 := r.NewPoly(basis)
	tmp := r.NewPoly(basis)
	if err := r.MulCoeffs(cta.C0, ctb.C0, d0); err != nil {
		t.Fatal(err)
	}
	if err := r.MulCoeffs(cta.C0, ctb.C1, d1); err != nil {
		t.Fatal(err)
	}
	if err := r.MulCoeffs(cta.C1, ctb.C0, tmp); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(d1, tmp, d1); err != nil {
		t.Fatal(err)
	}
	if err := r.MulCoeffs(cta.C1, ctb.C1, d2); err != nil {
		t.Fatal(err)
	}
	f0, f1, stats, err := eng.KeySwitch(d2, rlkMod, OutputAggregation)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Aggregations != 2 {
		t.Fatalf("expected 2 aggregations, got %d", stats.Aggregations)
	}
	if err := r.Add(d0, f0, d0); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(d1, f1, d1); err != nil {
		t.Fatal(err)
	}
	prod := &ckks.Ciphertext{C0: d0, C1: d1, Scale: cta.Scale * ctb.Scale}
	prod, err = tc.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tc.decr.Decrypt(prod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.enc.Decode(pt, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := va[i] * vb[i]
		if e := cmplx.Abs(got[i] - want); e > 1e-3 {
			t.Fatalf("slot %d: output-aggregation product error %g", i, e)
		}
	}
}

// TestOutputAggregationRequiresModularKey guards the digit-format check.
func TestOutputAggregationRequiresModularKey(t *testing.T) {
	tc := newKSContext(t, nil)
	eng, err := NewEngine(tc.params, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, ct := tc.encryptRandom(t, 8, 3)
	if _, _, _, err := eng.KeySwitch(ct.C1, tc.rlk, OutputAggregation); err == nil {
		t.Fatal("expected modular-digit key requirement error")
	}
}

// TestHoistedRotationsBatch: r rotations cost ONE broadcast and match the
// reference rotations slot-for-slot.
func TestHoistedRotationsBatch(t *testing.T) {
	rots := []int{1, 3, 5, 7}
	tc := newKSContext(t, rots)
	eng, err := NewEngine(tc.params, 4)
	if err != nil {
		t.Fatal(err)
	}
	rtks, err := tc.kg.GenRotationKeySet(tc.sk, rots, false)
	if err != nil {
		t.Fatal(err)
	}
	slots := tc.params.Slots()
	v, ct := tc.encryptRandom(t, slots, 11)
	outs, stats, err := eng.HoistedRotations(ct, rots, rtks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Broadcasts != 1 {
		t.Fatalf("batch of %d rotations took %d broadcasts, want 1", len(rots), stats.Broadcasts)
	}
	for i, k := range rots {
		pt, err := tc.decr.Decrypt(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.enc.Decode(pt, slots)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			want := v[(j+k)%slots]
			if e := cmplx.Abs(got[j] - want); e > 1e-3 {
				t.Fatalf("rotation %d slot %d error %g", k, j, e)
			}
		}
	}
}

// TestRotateAndSumBatch: r rotations + aggregation cost TWO aggregations
// and produce the correct sum.
func TestRotateAndSumBatch(t *testing.T) {
	rots := []int{1, 2, 4, 8}
	tc := newKSContext(t, nil)
	nChips := 4
	eng, err := NewEngine(tc.params, nChips)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := GenModularRotationKeys(tc.params, tc.sk, nChips, rots)
	if err != nil {
		t.Fatal(err)
	}
	slots := tc.params.Slots()
	v, ct := tc.encryptRandom(t, slots, 13)
	out, stats, err := eng.RotateAndSum(ct, rots, keys)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Aggregations != 2 {
		t.Fatalf("batch took %d aggregations, want 2", stats.Aggregations)
	}
	pt, err := tc.decr.Decrypt(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.enc.Decode(pt, slots)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		var want complex128
		for _, k := range rots {
			want += v[(j+k)%slots]
		}
		if e := cmplx.Abs(got[j] - want); e > 1e-3 {
			t.Fatalf("slot %d: rotate-and-sum error %g", j, e)
		}
	}
}

// TestCommScalingWithChips verifies the communication model's shape: the
// per-keyswitch bill grows with chips, while the batched kernels keep the
// collective count flat.
func TestCommScalingWithChips(t *testing.T) {
	tc := newKSContext(t, nil)
	_, ct := tc.encryptRandom(t, 8, 21)
	prev := 0
	for _, n := range []int{2, 4, 8} {
		eng, err := NewEngine(tc.params, n)
		if err != nil {
			t.Fatal(err)
		}
		_, _, stats, err := eng.KeySwitch(ct.C1, tc.rlk, InputBroadcast)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LimbsMoved <= prev {
			t.Fatalf("limbs moved should grow with chip count: %d then %d", prev, stats.LimbsMoved)
		}
		prev = stats.LimbsMoved
	}
}

func TestEngineValidation(t *testing.T) {
	tc := newKSContext(t, nil)
	if _, err := NewEngine(tc.params, 0); err == nil {
		t.Fatal("expected chip-count error")
	}
	eng, _ := NewEngine(tc.params, 2)
	_, ct := tc.encryptRandom(t, 8, 1)
	if _, _, _, err := eng.KeySwitch(ct.C1, tc.rlk, Algorithm(99)); err == nil {
		t.Fatal("expected unknown algorithm error")
	}
	cc := ct.C1.Copy()
	tc.params.Ring.INTT(cc)
	if _, _, _, err := eng.KeySwitch(cc, tc.rlk, InputBroadcast); err == nil {
		t.Fatal("expected NTT-domain requirement error")
	}
}

func TestAlgorithmString(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		Sequential: "Sequential", CiFHER: "CiFHER",
		InputBroadcast: "InputBroadcast", OutputAggregation: "OutputAggregation",
	} {
		if alg.String() != want {
			t.Fatalf("String() = %q, want %q", alg.String(), want)
		}
	}
}
