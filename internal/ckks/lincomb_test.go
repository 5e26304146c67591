package ckks

import (
	"math/rand"
	"testing"

	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// linCombParams is a ring over 60-bit chain moduli: the lazy budget
// (rns.MaxLazyAdds) is 15 products there, so a modest sum crosses it.
func linCombParams(t testing.TB, logN int) *Parameters {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     logN,
		LogQ:     []int{60, 60, 60, 60},
		LogP:     []int{61},
		LogScale: 40,
		Seed:     19,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// randomCiphertext returns uniform NTT-domain components at the given level:
// the accumulator's arithmetic does not care what they encrypt.
func randomCiphertext(params *Parameters, smp *ring.Sampler, level int) *Ciphertext {
	basis := params.QBasis.Prefix(level + 1)
	ct := &Ciphertext{C0: smp.UniformPoly(basis), C1: smp.UniformPoly(basis), Scale: params.DefaultScale()}
	ct.C0.IsNTT, ct.C1.IsNTT = true, true
	return ct
}

// strictSum is the oracle: the chain LinComb replaced. Every operand is
// dropped (copied) to the target level, each term is a MulPlain or a
// MulConstAtScale — one Barrett reduction and a fresh ciphertext — and the
// terms are folded with Add. pts[k] == nil makes term k the constant
// consts[k] at the given scale.
func strictSum(t *testing.T, ev *Evaluator, level int, cts []*Ciphertext, pts []*Plaintext, consts []float64, scale float64) *Ciphertext {
	t.Helper()
	basis, err := ev.params.BasisAtLevel(level)
	if err != nil {
		t.Fatal(err)
	}
	var acc *Ciphertext
	for k, ct := range cts {
		if ct, err = ev.DropLevel(ct, level); err != nil {
			t.Fatal(err)
		}
		var term *Ciphertext
		if pts[k] != nil {
			poly, err := ev.params.Ring.Restrict(pts[k].Poly, basis)
			if err != nil {
				t.Fatal(err)
			}
			term, err = ev.MulPlain(ct, &Plaintext{Poly: poly, Scale: pts[k].Scale, LevelV: level})
			if err != nil {
				t.Fatal(err)
			}
		} else if term, err = ev.MulConstAtScale(ct, complex(consts[k], 0), scale); err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = term
		} else if acc, err = ev.Add(acc, term); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestLinCombMatchesStrictChain: at every level, a sum of more terms than
// the lazy budget allows between folds, its operands scattered over the
// levels at and above the target, comes out limb for limb what the strict
// MulPlain/MulConst → Add chain returns — for plaintext weights, for
// constant weights (negative and zero included) and for the two mixed.
func TestLinCombMatchesStrictChain(t *testing.T) {
	for _, logN := range []int{6, 13} {
		linCombMatchesStrictChain(t, linCombParams(t, logN))
	}
}

func linCombMatchesStrictChain(t *testing.T, params *Parameters) {
	budget := 1 << 30
	for _, q := range params.QBasis.Moduli {
		if d := rns.MaxLazyAdds(q); d < budget {
			budget = d
		}
	}
	terms := 2*budget + 3
	ev := NewEvaluator(params, nil, nil)
	enc := NewEncoder(params)
	smp := ring.NewSampler(params.Ring, 23)
	rng := rand.New(rand.NewSource(29))
	top := params.MaxLevel()
	scale := params.DefaultScale()
	for level := 0; level <= top; level++ {
		cts := make([]*Ciphertext, terms)
		pts := make([]*Plaintext, terms)
		consts := make([]float64, terms)
		for k := range cts {
			cts[k] = randomCiphertext(params, smp, level+rng.Intn(top-level+1))
			var err error
			if pts[k], err = enc.Encode(randVec(rng, params.Slots()), level+rng.Intn(top-level+1), scale); err != nil {
				t.Fatal(err)
			}
			consts[k] = float64(rng.Intn(7)-3) + rng.Float64() // some negative
		}
		consts[1] = 0
		for _, weights := range []string{"plaintext", "constant", "mixed"} {
			usePts := make([]*Plaintext, terms)
			for k := range usePts {
				if weights == "plaintext" || weights == "mixed" && k%2 == 0 {
					usePts[k] = pts[k]
				}
			}
			lc, err := ev.NewLinComb(level)
			if err != nil {
				t.Fatal(err)
			}
			for k, ct := range cts {
				if usePts[k] != nil {
					err = lc.AddMulPlain(ct, usePts[k])
				} else {
					err = lc.AddMulConst(ct, consts[k], scale)
				}
				if err != nil {
					t.Fatalf("level %d, %s weights, term %d: %v", level, weights, k, err)
				}
			}
			got, err := lc.Sum()
			if err != nil {
				t.Fatal(err)
			}
			want := strictSum(t, ev, level, cts, usePts, consts, scale)
			if got.Level() != level || got.Scale != want.Scale || !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
				t.Fatalf("logN %d, level %d, %d terms (lazy budget %d), %s weights: accumulator differs from the strict chain", params.LogN(), level, terms, budget, weights)
			}
		}
	}
}

// TestLinCombRejects: the checks the strict chain made per term — operand
// level, scale agreement — and the accumulator's own lifetime.
func TestLinCombRejects(t *testing.T) {
	params := linCombParams(t, 6)
	ev := NewEvaluator(params, nil, nil)
	smp := ring.NewSampler(params.Ring, 31)
	scale := params.DefaultScale()
	if _, err := ev.NewLinComb(params.MaxLevel() + 1); err == nil {
		t.Fatal("accumulator above the top level accepted")
	}
	lc, err := ev.NewLinComb(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sum(); err == nil {
		t.Fatal("empty sum accepted")
	}
	if lc, err = ev.NewLinComb(2); err != nil {
		t.Fatal(err)
	}
	defer lc.Release()
	if err := lc.AddMulConst(randomCiphertext(params, smp, 1), 1, scale); err == nil {
		t.Fatal("ciphertext below the sum's level accepted")
	}
	pt, err := NewEncoder(params).Encode(make([]complex128, params.Slots()), 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.AddMulPlain(randomCiphertext(params, smp, 2), pt); err == nil {
		t.Fatal("plaintext below the sum's level accepted")
	}
	if err := lc.AddMulConst(randomCiphertext(params, smp, 2), 1, scale); err != nil {
		t.Fatal(err)
	}
	if err := lc.AddMulConst(randomCiphertext(params, smp, 3), 1, 2*scale); err == nil {
		t.Fatal("term at twice the sum's scale accepted")
	}
	if _, err := lc.Sum(); err != nil {
		t.Fatal(err)
	}
	if err := lc.AddMulConst(randomCiphertext(params, smp, 2), 1, scale); err == nil {
		t.Fatal("term accepted after Sum")
	}
}

// TestLinCombAccumulateZeroAlloc: a warm term — plaintext or constant weight,
// operand above the target level — allocates nothing; only Sum's output does.
func TestLinCombAccumulateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params := linCombParams(t, 6)
	ev := NewEvaluator(params, nil, nil)
	smp := ring.NewSampler(params.Ring, 37)
	scale := params.DefaultScale()
	ct := randomCiphertext(params, smp, params.MaxLevel())
	pt, err := NewEncoder(params).Encode(make([]complex128, params.Slots()), params.MaxLevel(), scale)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := ev.NewLinComb(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Release()
	allocs := testing.AllocsPerRun(20, func() {
		if err := lc.AddMulPlain(ct, pt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AddMulPlain allocated %.1f times per term, want 0", allocs)
	}
	lc2, err := ev.NewLinComb(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc2.Release()
	allocs = testing.AllocsPerRun(20, func() {
		if err := lc2.AddMulConst(ct, -0.75, scale); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AddMulConst allocated %.1f times per term, want 0", allocs)
	}
}
