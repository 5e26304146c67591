package ntt

import (
	mbits "math/bits"
	"math/rand"
	"testing"

	"cinnamon/internal/rns"
)

// testPrime returns an NTT-friendly prime for dimension n near 2^bits.
func testPrime(t *testing.T, n int, bits int) uint64 {
	t.Helper()
	logN := mbits.Len(uint(n)) - 1
	qs, err := rns.GenerateNTTPrimes(bits, logN, 1)
	if err != nil {
		t.Fatalf("generate prime: %v", err)
	}
	return qs[0]
}

// randPoly draws a canonical polynomial with the adversarial extremes 0 and
// q−1 mixed in: q−1 saturates the lazy [0, 4q) headroom fastest.
func randPoly(rng *rand.Rand, n int, q uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		switch rng.Intn(4) {
		case 0:
			a[i] = 0
		case 1:
			a[i] = q - 1
		default:
			a[i] = rng.Uint64() % q
		}
	}
	return a
}

// sweepLogN and sweepBits span every stage-count parity and span width the
// kernels special-case (a lone first stage, width-2 passes, a leftover
// radix-2 inverse stage) and the prime widths the chain can use, up to the
// 61-bit generation cap right under the 2^62 lazy bound.
var (
	sweepLogN = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	sweepBits = []int{30, 45, 58, 61}
)

// forEachTable runs f on one table per (logN, prime width) of the sweep,
// once per kernel set.
func forEachTable(t *testing.T, f func(t *testing.T, tb *Table, rng *rand.Rand)) {
	t.Helper()
	forEachKernel(t, func(t *testing.T) {
		for _, logN := range sweepLogN {
			for _, bits := range sweepBits {
				tb, err := NewTable(1<<logN, testPrime(t, 1<<logN, bits))
				if err != nil {
					t.Fatalf("logN=%d bits=%d: %v", logN, bits, err)
				}
				f(t, tb, rand.New(rand.NewSource(int64(100*logN+bits))))
			}
		}
	})
}

// strictNTT returns the strict reference transform of a; a is unchanged.
func strictNTT(tb *Table, a []uint64) []uint64 {
	r := append([]uint64(nil), a...)
	strictForward(tb, r)
	return r
}

// strictINTT returns the strict reference inverse transform of a.
func strictINTT(tb *Table, a []uint64) []uint64 {
	r := append([]uint64(nil), a...)
	strictInverse(tb, r)
	return r
}

func mustEqual(t *testing.T, tb *Table, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("N=%d q=%d: %s[%d] = %d, strict reference %d", tb.N, tb.Q, what, i, got[i], want[i])
		}
	}
}

// TestForwardMulAccPairMatchesUnfused proves the fused digit-absorb kernel
// (transform + double multiply-accumulate) against the strict transform.
// The fused kernel accumulates lazy (< 4q) transform values, so raw 128-bit
// accumulator words differ by multiples of q·b; what must (and does) agree
// bit-for-bit is the canonical residue after the wide Barrett reduction —
// the only value the keyswitch ever reads out of an accumulator.
func TestForwardMulAccPairMatchesUnfused(t *testing.T) {
	forEachTable(t, func(t *testing.T, tb *Table, rng *rand.Rand) {
		q := tb.Q
		bar := rns.NewBarrettParams(q)
		a := randPoly(rng, tb.N, q)
		b0, b1 := randPoly(rng, tb.N, q), randPoly(rng, tb.N, q)
		// Seed the accumulators with prior partial sums.
		h0, l0 := randPoly(rng, tb.N, 1<<20), randPoly(rng, tb.N, q)
		h1, l1 := randPoly(rng, tb.N, 1<<20), randPoly(rng, tb.N, q)
		x := strictNTT(tb, a)
		ref0, ref1 := make([]uint64, tb.N), make([]uint64, tb.N)
		for i := range x {
			ref0[i] = rns.AddMod(bar.ReduceWide(h0[i], l0[i]), rns.MulMod(x[i], b0[i], q), q)
			ref1[i] = rns.AddMod(bar.ReduceWide(h1[i], l1[i]), rns.MulMod(x[i], b1[i], q), q)
		}
		tb.ForwardMulAccPair(a, b0, b1, h0, l0, h1, l1)
		got0, got1 := make([]uint64, tb.N), make([]uint64, tb.N)
		for i := range got0 {
			got0[i], got1[i] = bar.ReduceWide(h0[i], l0[i]), bar.ReduceWide(h1[i], l1[i])
		}
		mustEqual(t, tb, "ForwardMulAccPair acc0", got0, ref0)
		mustEqual(t, tb, "ForwardMulAccPair acc1", got1, ref1)
	})
}

// TestForwardSubMulMatchesUnfused proves the fused NTT-domain mod-down
// combine equals the strict transform followed by a canonical pointwise
// (src − x)·w mod q.
func TestForwardSubMulMatchesUnfused(t *testing.T) {
	forEachTable(t, func(t *testing.T, tb *Table, rng *rand.Rand) {
		q := tb.Q
		w := rng.Uint64() % q
		ws := rns.ShoupPrecomp(w, q)
		a, src := randPoly(rng, tb.N, q), randPoly(rng, tb.N, q)
		ref := strictNTT(tb, a)
		for i := range ref {
			ref[i] = rns.MulMod(rns.SubMod(src[i], ref[i], q), w, q)
		}
		out := make([]uint64, tb.N)
		tb.ForwardSubMul(a, src, out, w, ws)
		mustEqual(t, tb, "ForwardSubMul", out, ref)
	})
}

// TestInverseScaledFromMatchesUnfused proves the fused out-of-place scaled
// inverse transform equals the strict inverse followed by a pointwise
// scalar multiply, and leaves its source untouched.
func TestInverseScaledFromMatchesUnfused(t *testing.T) {
	forEachTable(t, func(t *testing.T, tb *Table, rng *rand.Rand) {
		q := tb.Q
		s := rng.Uint64() % q
		wx, wxs, wy, wys := tb.ScaledLastPair(s)
		src := randPoly(rng, tb.N, q)
		keep := append([]uint64(nil), src...)
		ref := strictINTT(tb, src)
		for i := range ref {
			ref[i] = rns.MulMod(ref[i], s, q)
		}
		dst := make([]uint64, tb.N)
		tb.InverseScaledFrom(src, dst, wx, wxs, wy, wys)
		mustEqual(t, tb, "InverseScaledFrom", dst, ref)
		mustEqual(t, tb, "InverseScaledFrom source", src, keep)
	})
}

// TestBatchPlanMatchesPerLimb proves the batched transforms equal the
// strict reference limb by limb across dimensions and limb counts.
func TestBatchPlanMatchesPerLimb(t *testing.T) {
	forEachKernel(t, testBatchPlanMatchesPerLimb)
}

func testBatchPlanMatchesPerLimb(t *testing.T) {
	for _, logN := range sweepLogN {
		n := 1 << logN
		tables := make([]*Table, len(sweepBits))
		for i, bits := range sweepBits {
			var err error
			if tables[i], err = NewTable(n, testPrime(t, n, bits)); err != nil {
				t.Fatal(err)
			}
		}
		pl, err := NewBatchPlan(tables)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(19 + logN)))
		for limbs := 1; limbs <= len(tables); limbs++ {
			batch := make([][]uint64, limbs)
			ref := make([][]uint64, limbs)
			for i := range batch {
				batch[i] = randPoly(rng, n, tables[i].Q)
				ref[i] = strictNTT(tables[i], batch[i])
			}
			pl.Forward(batch)
			for i := range batch {
				mustEqual(t, tables[i], "batch Forward", batch[i], ref[i])
				ref[i] = strictINTT(tables[i], batch[i])
			}
			pl.Inverse(batch)
			for i := range batch {
				mustEqual(t, tables[i], "batch Inverse", batch[i], ref[i])
			}
		}
	}
}

// TestBatchPlanZeroAlloc asserts a warm batched transform performs zero
// heap allocations.
func TestBatchPlanZeroAlloc(t *testing.T) {
	n := 4096
	qs, err := rns.GenerateNTTPrimes(45, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*Table, len(qs))
	for i, q := range qs {
		if tables[i], err = NewTable(n, q); err != nil {
			t.Fatal(err)
		}
	}
	pl, err := NewBatchPlan(tables)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]uint64, len(qs))
	for i := range batch {
		batch[i] = make([]uint64, n)
		for k := range batch[i] {
			batch[i][k] = uint64(i*1315423911+k) % qs[i]
		}
	}
	pl.Forward(batch)
	pl.Inverse(batch)
	if avg := testing.AllocsPerRun(20, func() {
		pl.Forward(batch)
		pl.Inverse(batch)
	}); avg != 0 {
		t.Fatalf("warm batched transform allocated %.1f times per run, want 0", avg)
	}
}
