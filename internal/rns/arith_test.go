package rns

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

const testPrime = uint64(0x1fffffffffe00001) // 61-bit NTT-friendly prime

func TestAddSubNegMod(t *testing.T) {
	q := uint64(97)
	for a := uint64(0); a < q; a++ {
		for b := uint64(0); b < q; b++ {
			if got, want := AddMod(a, b, q), (a+b)%q; got != want {
				t.Fatalf("AddMod(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := SubMod(a, b, q), (a+q-b)%q; got != want {
				t.Fatalf("SubMod(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
		if got, want := NegMod(a, q), (q-a)%q; got != want {
			t.Fatalf("NegMod(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestAddModLargeModulus(t *testing.T) {
	// Moduli near 2^64 must not overflow.
	q := uint64(0xffffffffffffffc5) // largest 64-bit prime
	a, b := q-1, q-2
	want := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
	want.Mod(want, new(big.Int).SetUint64(q))
	if got := AddMod(a, b, q); got != want.Uint64() {
		t.Fatalf("AddMod near 2^64 = %d, want %d", got, want.Uint64())
	}
}

// TestAddSubModAgainstBigInt: the branch-free AddMod and SubMod agree with
// exact arithmetic for any modulus below 2^64 — small, NTT-sized, and
// within 64 of 2^64, where a + b wraps past 2^64 — on random operands and
// on the operand extremes 0, 1, q−2 and q−1.
func TestAddSubModAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	moduli := []uint64{2, 3, 97, 1<<40 + 1, testPrime, 1<<63 + 1, 0xffffffffffffffc5}
	for d := uint64(1); d <= 64; d++ {
		moduli = append(moduli, -d) // 2^64 − d
	}
	for _, q := range moduli {
		qb := new(big.Int).SetUint64(q)
		ops := []uint64{0, 1 % q, (q - 2) % q, q - 1}
		for i := 0; i < 200; i++ {
			ops = append(ops, rng.Uint64()%q)
		}
		for i, a := range ops {
			for _, b := range []uint64{ops[(i+1)%len(ops)], ops[len(ops)-1-i], a} {
				ab, bb := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
				sum := new(big.Int).Add(ab, bb)
				if got, want := AddMod(a, b, q), sum.Mod(sum, qb).Uint64(); got != want {
					t.Fatalf("AddMod(%d, %d, %d) = %d, want %d", a, b, q, got, want)
				}
				diff := new(big.Int).Sub(ab, bb)
				if got, want := SubMod(a, b, q), diff.Mod(diff, qb).Uint64(); got != want {
					t.Fatalf("SubMod(%d, %d, %d) = %d, want %d", a, b, q, got, want)
				}
			}
		}
	}
}

func TestMulModAgainstBigInt(t *testing.T) {
	f := func(a, b uint64) bool {
		q := testPrime
		a, b = a%q, b%q
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(q))
		return MulMod(a, b, q) == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulModShoupMatchesMulMod(t *testing.T) {
	f := func(x, w uint64) bool {
		q := testPrime
		x, w = x%q, w%q
		ws := ShoupPrecomp(w, q)
		return MulModShoup(x, w, ws, q) == MulMod(x, w, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBarrettReduceMatchesDiv(t *testing.T) {
	q := testPrime
	bhi, blo := BarrettConstant(q)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b := rng.Uint64()%q, rng.Uint64()%q
		want := MulMod(a, b, q)
		hi, lo := mulWide(a, b)
		if got := BarrettReduce(hi, lo, bhi, blo, q); got != want {
			t.Fatalf("BarrettReduce(%d*%d) = %d, want %d", a, b, got, want)
		}
	}
}

func mulWide(a, b uint64) (hi, lo uint64) {
	ab := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
	lo = ab.Uint64()
	hi = new(big.Int).Rsh(ab, 64).Uint64()
	return
}

func TestPowMod(t *testing.T) {
	q := uint64(101)
	if got := PowMod(2, 10, q); got != 1024%q {
		t.Fatalf("PowMod(2,10) = %d", got)
	}
	if got := PowMod(7, 0, q); got != 1 {
		t.Fatalf("PowMod(7,0) = %d", got)
	}
	// Fermat: a^(q-1) = 1 for prime q, a != 0.
	for a := uint64(1); a < q; a++ {
		if PowMod(a, q-1, q) != 1 {
			t.Fatalf("Fermat fails for a=%d", a)
		}
	}
}

func TestInvMod(t *testing.T) {
	q := testPrime
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := rng.Uint64()%(q-1) + 1
		if MulMod(a, InvMod(a, q), q) != 1 {
			t.Fatalf("InvMod(%d) is not an inverse", a)
		}
	}
}

func TestModArithDistributive(t *testing.T) {
	// (a + b) * c == a*c + b*c mod q — a core algebraic invariant.
	f := func(a, b, c uint64) bool {
		q := testPrime
		a, b, c = a%q, b%q, c%q
		lhs := MulMod(AddMod(a, b, q), c, q)
		rhs := AddMod(MulMod(a, c, q), MulMod(b, c, q), q)
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulMod(b *testing.B) {
	q := testPrime
	x, y := q-12345, q-98765
	for i := 0; i < b.N; i++ {
		x = MulMod(x, y, q)
	}
	sinkU64 = x
}

func BenchmarkMulModShoup(b *testing.B) {
	q := testPrime
	w := q - 98765
	ws := ShoupPrecomp(w, q)
	x := q - 12345
	for i := 0; i < b.N; i++ {
		x = MulModShoup(x, w, ws, q)
	}
	sinkU64 = x
}

var sinkU64 uint64
