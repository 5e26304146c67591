package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"cinnamon/internal/rns"
)

// The base conversion's lane arithmetic is pinned against math/big under
// both kernel sets in internal/ntt (TestAccumulateSmallSourcesAgainstBigInt);
// these tests pin the converter around it.

// testBasis is a basis of count NTT-friendly primes of the given width.
func testBasis(t *testing.T, bits, logN, count int) rns.Basis {
	t.Helper()
	primes, err := rns.GenerateNTTPrimes(bits, logN, count)
	if err != nil {
		t.Fatal(err)
	}
	return rns.MustBasis(primes)
}

func TestBaseConverterRejectsOverlap(t *testing.T) {
	a := rns.MustBasis([]uint64{3, 5})
	b := rns.MustBasis([]uint64{5, 7})
	if _, err := NewBaseConverter(a, b); err == nil {
		t.Fatal("expected overlap error")
	}
}

// TestBaseConvertApproximation verifies the defining property of fast base
// conversion: the output represents x + u·Q for some 0 ≤ u < ℓ.
func TestBaseConvertApproximation(t *testing.T) {
	src := testBasis(t, 40, 10, 4)
	dstPrimes, err := rns.GenerateNTTPrimes(41, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	dst := rns.MustBasis(dstPrimes)
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
