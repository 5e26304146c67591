package ckks

import (
	"errors"
	"slices"
	"testing"

	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
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
// planned kernel's bit-exactness oracle is refKeySwitch below.)
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

// refKeySwitch is the hybrid keyswitch of paper Fig. 4 written with the
// unfused ring operations only — INTT, a per-digit base conversion onto
// the complement, NTT, pointwise multiply-add against the restricted key,
// then INTT → ModDown → NTT. It shares no kernel with KSPlan (no scaled
// decompose, no fused absorb, no NTT-domain mod-down), so it is the
// plan's bit-exactness oracle.
func refKeySwitch(t *testing.T, params *Parameters, c *ring.Poly, evk *EvalKey) (*ring.Poly, *ring.Poly) {
	t.Helper()
	r := params.Ring
	l := c.Basis.Len() - 1
	union, err := c.Basis.Union(params.PBasis)
	if err != nil {
		t.Fatal(err)
	}
	cc := c.Copy()
	if err := r.INTT(cc); err != nil {
		t.Fatal(err)
	}
	sum := [2]*ring.Poly{r.NewPoly(union), r.NewPoly(union)}
	sum[0].IsNTT, sum[1].IsNTT = true, true
	for d := 0; ; d++ {
		lo, hi, ok := params.DigitRange(d, l)
		if !ok {
			break
		}
		var comp []uint64
		for u, q := range union.Moduli {
			if u < lo || u >= hi {
				comp = append(comp, q)
			}
		}
		bc, err := ring.NewBaseConverter(rns.Basis{Moduli: union.Moduli[lo:hi]}, rns.Basis{Moduli: comp})
		if err != nil {
			t.Fatal(err)
		}
		conv, err := bc.Convert(cc.Limbs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		up := r.NewPoly(union)
		for u := range up.Limbs {
			if u >= lo && u < hi {
				copy(up.Limbs[u], cc.Limbs[u])
			} else {
				copy(up.Limbs[u], conv[0])
				conv = conv[1:]
			}
		}
		if err := r.NTT(up); err != nil {
			t.Fatal(err)
		}
		for i, key := range []*ring.Poly{evk.B[d], evk.A[d]} {
			k, err := r.Restrict(key, union)
			if err != nil {
				t.Fatal(err)
			}
			prod := r.NewPoly(union)
			if err := r.MulCoeffs(up, k, prod); err != nil {
				t.Fatal(err)
			}
			if err := r.Add(sum[i], prod, sum[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out [2]*ring.Poly
	for i, s := range sum {
		if err := r.INTT(s); err != nil {
			t.Fatal(err)
		}
		down, err := r.ModDown(s, params.PBasis)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.NTT(down); err != nil {
			t.Fatal(err)
		}
		out[i] = down
	}
	return out[0], out[1]
}

// TestKeySwitchMatchesUnfusedReference: the local keyswitch and every
// chip's share of it (a plan over the limbs the chip owns, fed
// coefficient-domain digits through AbsorbCoeff as a cluster worker is)
// equal the unfused reference limb for limb, at every level, for chip
// counts that leave some chips without a limb at low levels.
func TestKeySwitchMatchesUnfusedReference(t *testing.T) {
	params := ksTestParams(t)
	r := params.Ring
	kg := NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(params, rlk, nil)
	full := kg.sampler.UniformPoly(params.QBasis)
	for l := 0; l <= params.MaxLevel(); l++ {
		c := &ring.Poly{Basis: params.QBasis.Prefix(l + 1), Limbs: full.Limbs[:l+1], IsNTT: true}
		ref0, ref1 := refKeySwitch(t, params, c, rlk)
		f0, f1, err := ev.KeySwitch(c, rlk)
		if err != nil {
			t.Fatal(err)
		}
		if !f0.Equal(ref0) || !f1.Equal(ref1) {
			t.Fatalf("level %d: local keyswitch differs from the unfused reference", l)
		}
		cc := c.Copy()
		if err := r.INTT(cc); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4} {
			for chip := 0; chip < n && chip <= l; chip++ {
				var owned []int
				for j := chip; j <= l; j += n {
					owned = append(owned, j)
				}
				pl, err := params.KSPlanFor(l, owned)
				if err != nil {
					t.Fatal(err)
				}
				run, err := pl.Start(rlk)
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d < pl.Digits(); d++ {
					lo, hi, _ := params.DigitRange(d, l)
					if err := run.AbsorbCoeff(d, cc.Limbs[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				g0, g1, err := run.Finish()
				run.Release()
				if err != nil {
					t.Fatal(err)
				}
				for k, j := range pl.Owned() {
					if !slices.Equal(g0.Limbs[k], ref0.Limbs[j]) || !slices.Equal(g1.Limbs[k], ref1.Limbs[j]) {
						t.Fatalf("level %d, chip %d of %d: chain limb %d differs from the unfused reference", l, chip, n, j)
					}
				}
			}
		}
	}
}

// TestKSRunRejectsMisuse: a chip plan refuses limbs it cannot own, and a
// run refuses digits out of order and an early Finish.
func TestKSRunRejectsMisuse(t *testing.T) {
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
	l := params.MaxLevel()
	for _, owned := range [][]int{nil, {1, 0}, {0, 0}, {l + 1}, {-1}} {
		if _, err := params.KSPlanFor(l, owned); err == nil {
			t.Errorf("owned limbs %v: compiled a plan", owned)
		}
	}
	pl, err := params.KSPlanFor(l, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := pl.Start(rlk)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Release()
	if pl.Digits() < 2 {
		t.Fatalf("level %d has %d digits; the test needs two", l, pl.Digits())
	}
	lo, hi, _ := params.DigitRange(1, l)
	limbs := kg.sampler.UniformPoly(params.QBasis).Limbs[lo:hi]
	if err := run.AbsorbCoeff(1, limbs); err == nil {
		t.Error("digit 1 absorbed before digit 0")
	}
	if _, _, err := run.Finish(); err == nil {
		t.Error("Finish before any digit succeeded")
	}
}
