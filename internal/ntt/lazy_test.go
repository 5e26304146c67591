package ntt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cinnamon/internal/rns"
)

// strictForward is the fully-reduced reference transform: the textbook
// Cooley-Tukey butterflies over the same twiddle tables, with every
// intermediate value kept canonical. The lazy Forward must match it
// bit-for-bit on every input.
func strictForward(t *Table, a []uint64) {
	q := t.Q
	step := t.N
	for m := 1; m < t.N; m <<= 1 {
		step >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * step
			w, ws := t.twF[2*(m+i)], t.twF[2*(m+i)+1]
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := rns.MulModShoup(a[j+step], w, ws, q)
				a[j] = rns.AddMod(u, v, q)
				a[j+step] = rns.SubMod(u, v, q)
			}
		}
	}
}

// strictInverse is the fully-reduced Gentleman-Sande reference with an
// explicit final N⁻¹ scaling pass (the lazy Inverse folds it into the last
// stage instead).
func strictInverse(t *Table, a []uint64) {
	q := t.Q
	step := 1
	for m := t.N; m > 1; m >>= 1 {
		h := m >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w, ws := t.twI[2*(h+i)], t.twI[2*(h+i)+1]
			for j := j1; j < j1+step; j++ {
				u, v := a[j], a[j+step]
				a[j] = rns.AddMod(u, v, q)
				a[j+step] = rns.MulModShoup(rns.SubMod(u, v, q), w, ws, q)
			}
			j1 += 2 * step
		}
		step <<= 1
	}
	for i := range a {
		a[i] = rns.MulModShoup(a[i], t.nInv, t.nInvShoup, q)
	}
}

// TestLazyMatchesStrict checks, across dimensions and the full range of
// modulus widths the chain can use (up to the 61-bit generation cap, right
// under the 2^62 lazy bound), that the lazy transforms agree bit-for-bit
// with the fully-reduced reference and that their outputs are canonical.
func TestLazyMatchesStrict(t *testing.T) {
	for _, logN := range []int{1, 2, 3, 6, 10, 12} {
		for _, bitsz := range []int{30, 45, 50, 55, 58, 61} {
			primes, err := rns.GenerateNTTPrimes(bitsz, logN, 1)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := NewTable(1<<logN, primes[0])
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(logN*100 + bitsz)))
			for trial := 0; trial < 4; trial++ {
				a := make([]uint64, tb.N)
				for i := range a {
					a[i] = rng.Uint64() % tb.Q
				}
				lazy := append([]uint64(nil), a...)
				strict := append([]uint64(nil), a...)
				tb.Forward(lazy)
				strictForward(tb, strict)
				for i := range lazy {
					if lazy[i] != strict[i] {
						t.Fatalf("logN=%d bits=%d: Forward differs at %d: lazy %d, strict %d", logN, bitsz, i, lazy[i], strict[i])
					}
					if lazy[i] >= tb.Q {
						t.Fatalf("logN=%d bits=%d: Forward output %d not canonical: %d >= q", logN, bitsz, i, lazy[i])
					}
				}
				tb.Inverse(lazy)
				strictInverse(tb, strict)
				for i := range lazy {
					if lazy[i] != strict[i] {
						t.Fatalf("logN=%d bits=%d: Inverse differs at %d: lazy %d, strict %d", logN, bitsz, i, lazy[i], strict[i])
					}
					if lazy[i] >= tb.Q {
						t.Fatalf("logN=%d bits=%d: Inverse output %d not canonical: %d >= q", logN, bitsz, i, lazy[i])
					}
				}
			}
		}
	}
}

// TestLazyMatchesStrictQuick drives the same equivalence through
// testing/quick with adversarial extremes mixed in (0 and q-1 saturate the
// lazy [0,4q) headroom fastest).
func TestLazyMatchesStrictQuick(t *testing.T) {
	tb := newTestTable(t, 9)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, tb.N)
		for i := range a {
			switch rng.Intn(4) {
			case 0:
				a[i] = tb.Q - 1
			case 1:
				a[i] = 0
			default:
				a[i] = rng.Uint64() % tb.Q
			}
		}
		lazy := append([]uint64(nil), a...)
		strict := append([]uint64(nil), a...)
		tb.Forward(lazy)
		strictForward(tb, strict)
		for i := range lazy {
			if lazy[i] != strict[i] || lazy[i] >= tb.Q {
				return false
			}
		}
		tb.Inverse(lazy)
		strictInverse(tb, strict)
		for i := range lazy {
			if lazy[i] != strict[i] || lazy[i] >= tb.Q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestForwardMatchesNaiveDFT cross-checks the transform against the naive
// O(N²) definition: the output is the evaluation of the input polynomial at
// the odd powers of the 2N-th root ψ, in bit-reversed order —
// out[i] = Σ_j a_j · ψ^{(2·brv(i)+1)·j} mod q.
func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, logN := range []int{2, 4, 6} {
		tb := newTestTable(t, logN)
		n, q := tb.N, tb.Q
		psi := tb.twF[2*reverseBits(1, tb.logN)]
		rng := rand.New(rand.NewSource(int64(logN)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
		}
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			e := 2*reverseBits(uint64(i), tb.logN) + 1
			root := rns.PowMod(psi, e, q)
			acc, p := uint64(0), uint64(1)
			for j := 0; j < n; j++ {
				acc = rns.AddMod(acc, rns.MulMod(a[j], p, q), q)
				p = rns.MulMod(p, root, q)
			}
			want[i] = acc
		}
		got := append([]uint64(nil), a...)
		tb.Forward(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("logN=%d: output %d: got %d, naive DFT %d", logN, i, got[i], want[i])
			}
		}
	}
}

// TestTableRejectsOversizedPrime pins the lazy-reduction precondition: a
// modulus at or above 2^62 would overflow u + 2q - v in uint64.
func TestTableRejectsOversizedPrime(t *testing.T) {
	if _, err := NewTable(8, 1<<62+1); err == nil {
		t.Fatal("expected error for prime above the 2^62 lazy bound")
	}
}
