package rns

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestBaseConverterRejectsOverlap(t *testing.T) {
	a := MustBasis([]uint64{3, 5})
	b := MustBasis([]uint64{5, 7})
	if _, err := NewBaseConverter(a, b); err == nil {
		t.Fatal("expected overlap error")
	}
}

// TestBaseConvertApproximation verifies the defining property of fast base
// conversion: the output represents x + u·Q for some 0 ≤ u < ℓ.
func TestBaseConvertApproximation(t *testing.T) {
	src := testBasis(t, 40, 10, 4)
	dstPrimes, err := GenerateNTTPrimes(41, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	dst := MustBasis(dstPrimes)
	bc, err := NewBaseConverter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	Q := src.Product()
	const n = 16
	rng := rand.New(rand.NewSource(11))
	xs := make([]*big.Int, n)
	in := make([][]uint64, src.Len())
	for j := range in {
		in[j] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		xs[i] = new(big.Int).Rand(rng, Q)
		res := src.Decompose(xs[i])
		for j := range in {
			in[j][i] = res[j]
		}
	}
	out, err := bc.Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != dst.Len() {
		t.Fatalf("got %d output limbs, want %d", len(out), dst.Len())
	}
	l := int64(src.Len())
	for i := 0; i < n; i++ {
		matched := false
		for u := int64(0); u <= l; u++ {
			cand := new(big.Int).Mul(Q, big.NewInt(u))
			cand.Add(cand, xs[i])
			ok := true
			for k, p := range dst.Moduli {
				want := new(big.Int).Mod(cand, new(big.Int).SetUint64(p)).Uint64()
				if out[k][i] != want {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("coefficient %d: output is not x + uQ for any 0 <= u <= %d", i, l)
		}
	}
}

// TestBaseConvertZero: the zero polynomial converts to zero exactly (all
// z_j are zero, so no u·Q slack arises).
func TestBaseConvertZero(t *testing.T) {
	src := testBasis(t, 40, 10, 3)
	dst := testBasis(t, 41, 10, 2) // disjoint from src: different bit size
	bc, err := NewBaseConverter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	in := make([][]uint64, src.Len())
	for j := range in {
		in[j] = make([]uint64, n)
	}
	out, err := bc.Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	for k := range out {
		for i := 0; i < n; i++ {
			if out[k][i] != 0 {
				t.Fatalf("limb %d coeff %d = %d, want 0", k, i, out[k][i])
			}
		}
	}
}

// TestConvertExactIsExact: unlike the fast conversion, ConvertExact must
// return precisely x mod p for every coefficient.
func TestConvertExactIsExact(t *testing.T) {
	src := testBasis(t, 40, 10, 5)
	dst := testBasis(t, 41, 10, 3)
	bc, err := NewBaseConverter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	Q := src.Product()
	rng := rand.New(rand.NewSource(23))
	const n = 64
	xs := make([]*big.Int, n)
	in := make([][]uint64, src.Len())
	for j := range in {
		in[j] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		xs[i] = new(big.Int).Rand(rng, Q)
		res := src.Decompose(xs[i])
		for j := range in {
			in[j][i] = res[j]
		}
	}
	out, err := bc.ConvertExact(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for k, p := range dst.Moduli {
			want := new(big.Int).Mod(xs[i], new(big.Int).SetUint64(p)).Uint64()
			if out[k][i] != want {
				t.Fatalf("coeff %d mod %d: got %d, want %d", i, p, out[k][i], want)
			}
		}
	}
	if _, err := bc.ConvertExact(make([][]uint64, 1)); err == nil {
		t.Fatal("expected limb-count error")
	}
}

// TestAccumulateSmallSourcesAgainstBigInt: the one- and two-limb
// accumulate — the rescale's and the special-pair mod-down's lazy path —
// returns Σ_j z_j·(Q/q_j) mod p exactly, for canonical z at both ends of
// its range, from source moduli larger and smaller than the target, into
// 40- and 61-bit targets and a hand-built modulus above the lazy gate.
func TestAccumulateSmallSourcesAgainstBigInt(t *testing.T) {
	p61, err := GenerateNTTPrimes(61, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	p40 := testBasis(t, 40, 10, 3).Moduli
	const largest64 = uint64(0xffffffffffffffc5) // largest 64-bit prime
	dst := MustBasis([]uint64{p40[1], p40[2], p61[2], p61[3], largest64})
	sources := [][]uint64{
		{p61[0]},         // one limb, larger than the 40-bit targets
		{p40[0]},         // one limb, smaller than the 61-bit targets
		{p61[0], p61[1]}, // a 61-bit pair
		{p61[1], p40[0]}, // a mixed pair
	}
	rng := rand.New(rand.NewSource(41))
	const n = 256
	for _, moduli := range sources {
		src := MustBasis(moduli)
		bc, err := NewBaseConverter(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		Q := src.Product()
		z := make([][]uint64, src.Len())
		for j, q := range src.Moduli {
			z[j] = make([]uint64, n)
			for i := range z[j] {
				z[j][i] = rng.Uint64() % q
			}
			z[j][0], z[j][1] = q-1, 0
			z[j][2+j] = q - 1 // and one coefficient per limb at q−1 alone
		}
		out := make([][]uint64, dst.Len())
		for k := range out {
			out[k] = make([]uint64, n)
		}
		if err := bc.AccumulateInto(z, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sum := new(big.Int)
			for j, q := range src.Moduli {
				qHat := new(big.Int).Div(Q, new(big.Int).SetUint64(q))
				sum.Add(sum, qHat.Mul(qHat, new(big.Int).SetUint64(z[j][i])))
			}
			for k, p := range dst.Moduli {
				want := new(big.Int).Mod(sum, new(big.Int).SetUint64(p)).Uint64()
				if out[k][i] != want {
					t.Fatalf("source %v, target %d, coeff %d: got %d, want %d", moduli, p, i, out[k][i], want)
				}
			}
		}
	}
}

func TestBaseConvertInputValidation(t *testing.T) {
	src := testBasis(t, 40, 10, 3)
	dst := testBasis(t, 41, 10, 2)
	bc, err := NewBaseConverter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Convert(make([][]uint64, 2)); err == nil {
		t.Fatal("expected limb-count error")
	}
	bad := [][]uint64{make([]uint64, 4), make([]uint64, 4), make([]uint64, 5)}
	if _, err := bc.Convert(bad); err == nil {
		t.Fatal("expected ragged-limb error")
	}
}

func TestConvertScalarCount(t *testing.T) {
	src := testBasis(t, 40, 10, 4)
	dst := testBasis(t, 41, 10, 3)
	bc, err := NewBaseConverter(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bc.ConvertScalarCount(), 4*(1+3); got != want {
		t.Fatalf("scalar count = %d, want %d", got, want)
	}
}
