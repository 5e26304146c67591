package ckks

import (
	"errors"
	"testing"
)

func ksTestParams(t *testing.T) *Parameters {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     11,
		LogQ:     []int{50, 40, 40, 40, 40},
		LogP:     []int{55, 55},
		LogScale: 40,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// TestKeySwitchRejectsUnplannable: a key the per-level plan does not cover —
// a modular-digit partition, or fewer digits than the level needs — is
// refused with ErrNoKeySwitchPlan instead of being switched under the
// default digit ranges, which yields a wrong polynomial and no error. (The
// planned kernel's bit-exactness oracle is internal/keyswitch's
// input-broadcast sweep: an independent implementation of the same
// arithmetic.)
func TestKeySwitchRejectsUnplannable(t *testing.T) {
	params := ksTestParams(t)
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]int, 2)
	for j := 0; j < params.QBasis.Len(); j++ {
		sets[j%2] = append(sets[j%2], j)
	}
	modular, err := kg.GenEvalKeyDigits(sk.S, sk, sets)
	if err != nil {
		t.Fatal(err)
	}
	short := &EvalKey{B: rlk.B[:1], A: rlk.A[:1]}
	ev := NewEvaluator(params, rlk, nil)
	c := kg.sampler.UniformPoly(params.QBasis)
	c.IsNTT = true
	if _, _, err := ev.KeySwitch(c, rlk); err != nil {
		t.Fatalf("default-partition key: %v", err)
	}
	for name, key := range map[string]*EvalKey{"modular-digit key": modular, "key shorter than the level": short} {
		f0, f1, err := ev.KeySwitch(c, key)
		if !errors.Is(err, ErrNoKeySwitchPlan) || f0 != nil || f1 != nil {
			t.Errorf("%s: err = %v, want ErrNoKeySwitchPlan and no output", name, err)
		}
	}
}
