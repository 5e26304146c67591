package ckks

import (
	"errors"
	"testing"

	"cinnamon/internal/ring"
	"cinnamon/internal/rns"
)

// rescaleParams mixes chain-modulus sizes so that the dropped modulus q_l
// is larger than some of the limbs it is reduced into and smaller than
// others, and puts 60/61-bit moduli on the chain.
func rescaleParams(t testing.TB, logN int) *Parameters {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     logN,
		LogQ:     []int{55, 40, 61, 45, 60, 50, 61},
		LogP:     []int{61, 61},
		LogScale: 40,
		Seed:     43,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// coefficientRescale is the oracle: the coefficient-domain chain
// Evaluator.Rescale replaced — INTT every limb, ring.Rescale, NTT back.
func coefficientRescale(t *testing.T, r *ring.Ring, p *ring.Poly) *ring.Poly {
	t.Helper()
	c := p.Copy()
	if err := r.INTT(c); err != nil {
		t.Fatal(err)
	}
	out, err := r.Rescale(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.NTT(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRescaleMatchesCoefficientDomain: at every level of three ring sizes,
// the NTT-domain rescale is limb for limb the coefficient-domain chain,
// with the scale divided by q_l.
func TestRescaleMatchesCoefficientDomain(t *testing.T) {
	for _, logN := range []int{7, 10, 12} {
		params := rescaleParams(t, logN)
		r := params.Ring
		ev := NewEvaluator(params, nil, nil)
		smp := ring.NewSampler(r, int64(logN))
		for l := params.MaxLevel(); l >= 1; l-- {
			ct := randomCiphertext(params, smp, l)
			got, err := ev.Rescale(ct)
			if err != nil {
				t.Fatalf("logN %d, level %d: %v", logN, l, err)
			}
			want0, want1 := coefficientRescale(t, r, ct.C0), coefficientRescale(t, r, ct.C1)
			if got.Level() != l-1 || !got.C0.IsNTT || !got.C0.Equal(want0) || !got.C1.Equal(want1) {
				t.Fatalf("logN %d, level %d: rescale differs from INTT → ring.Rescale → NTT", logN, l)
			}
			if wantScale := ct.Scale / float64(params.QBasis.Moduli[l]); got.Scale != wantScale {
				t.Fatalf("logN %d, level %d: scale %g, want %g", logN, l, got.Scale, wantScale)
			}
		}
	}
}

// TestRescaleRejectsUnplannable: a ciphertext at level 0, in the
// coefficient domain, or over moduli that are not the chain prefix is
// refused with ErrNoRescalePlan — there is no second rescale path to fall
// back to.
func TestRescaleRejectsUnplannable(t *testing.T) {
	params := rescaleParams(t, 7)
	ev := NewEvaluator(params, nil, nil)
	smp := ring.NewSampler(params.Ring, 47)
	q := params.QBasis.Moduli
	offChain := func(moduli ...uint64) *Ciphertext {
		b := rns.MustBasis(moduli)
		ct := &Ciphertext{C0: smp.UniformPoly(b), C1: smp.UniformPoly(b), Scale: params.DefaultScale()}
		ct.C0.IsNTT, ct.C1.IsNTT = true, true
		return ct
	}
	coeff := randomCiphertext(params, smp, 3)
	coeff.C1.IsNTT = false
	mixed := randomCiphertext(params, smp, 2)
	mixed.C1 = offChain(q[0], q[1], q[3]).C1
	cases := map[string]*Ciphertext{
		"level 0":                  randomCiphertext(params, smp, 0),
		"coefficient domain":       coeff,
		"skipped chain modulus":    offChain(q[0], q[2]),
		"special modulus on top":   offChain(q[0], q[1], params.PBasis.Moduli[0]),
		"second component foreign": mixed,
	}
	for name, ct := range cases {
		out, err := ev.Rescale(ct)
		if !errors.Is(err, ErrNoRescalePlan) || out != nil {
			t.Errorf("%s: err = %v, want ErrNoRescalePlan and no output", name, err)
		}
	}
}

// TestRescaleAllocCeiling: once the level's plan is compiled and the ring
// pools are warm, a rescale whose outputs go back to the pool allocates
// only its Ciphertext header.
func TestRescaleAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is perturbed by the race detector")
	}
	params := rescaleParams(t, 7)
	r := params.Ring
	if err := params.CompilePlans(); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(params, nil, nil)
	ct := randomCiphertext(params, ring.NewSampler(r, 53), params.MaxLevel())
	run := func() {
		out, err := ev.Rescale(ct)
		if err != nil {
			t.Fatal(err)
		}
		r.PutPoly(out.C0)
		r.PutPoly(out.C1)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 1 {
		t.Fatalf("warm rescale allocated %.1f times per op, want at most the Ciphertext header", allocs)
	}
}
