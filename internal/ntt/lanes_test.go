package ntt

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"cinnamon/internal/rns"
)

// laneCase is one lane kernel run on operands of one length: in holds the
// inputs, and run writes every output into out (the accumulators of the
// wide kernels are both inputs and outputs, so they are copied into out
// first).
type laneCase struct {
	name string
	run  func(in, out [][]uint64)
}

// vectorLanes lists every lane kernel with a vector body for modulus q,
// with the constants drawn from rng. ConvAccumulate runs the one- and
// two-source shapes, the ones with a vector body.
func vectorLanes(q uint64, rng *rand.Rand) []laneCase {
	bp := rns.NewBarrettParams(q)
	w := rng.Uint64() % q
	ws := rns.ShoupPrecomp(w, q)
	f := make([]uint64, 2)
	fs := make([]uint64, 2)
	for j := range f {
		f[j] = rng.Uint64() % q
		fs[j] = rns.ShoupPrecomp(f[j], q)
	}
	f[0] = q - 1
	fs[0] = rns.ShoupPrecomp(q-1, q)
	cs := []laneCase{
		{"MulAccWide", func(in, out [][]uint64) {
			copy(out[0], in[2])
			copy(out[1], in[3])
			MulAccWide(out[0], out[1], in[0], in[1])
		}},
		{"MulAccWideScalar", func(in, out [][]uint64) {
			copy(out[0], in[2])
			copy(out[1], in[3])
			MulAccWideScalar(out[0], out[1], in[0], w)
		}},
		{"ReduceWide", func(in, out [][]uint64) { ReduceWide(out[0], in[0], in[1], bp) }},
		{"MulBarrett", func(in, out [][]uint64) { MulBarrett(out[0], in[0], in[1], bp) }},
		{"MulShoup", func(in, out [][]uint64) { MulShoup(out[0], in[0], w, ws, q) }},
		{"AddMod", func(in, out [][]uint64) { AddMod(out[0], in[0], in[1], q) }},
		{"SubMod", func(in, out [][]uint64) { SubMod(out[0], in[0], in[1], q) }},
	}
	for _, srcs := range []int{1, 2} {
		cs = append(cs, laneCase{fmt.Sprintf("ConvAccumulate/%d", srcs), func(in, out [][]uint64) {
			ConvAccumulate(out[0], in[:srcs], f[:srcs], fs[:srcs], bp)
		}})
	}
	return cs
}

// checkLanesMatchGo runs every lane kernel with the vector bodies on and
// off on the same edge-heavy operands of length n and requires equal words
// in every output. ReduceWide's high words are drawn below q, as its
// precondition asks; the Shoup kernels' left words also range over all of
// uint64 (a base conversion's source modulus may exceed its target).
func checkLanesMatchGo(t *testing.T, q uint64, n int, rng *rand.Rand) {
	t.Helper()
	host := useAVX512
	defer func() { useAVX512 = host }()
	for _, lc := range vectorLanes(q, rng) {
		in := make([][]uint64, 5)
		for k := range in {
			in[k] = edgePoly(rng, n, q)
		}
		switch {
		case lc.name == "ReduceWide":
			for i := range in[0] {
				in[0][i] %= q
			}
		case lc.name == "MulShoup" || strings.HasPrefix(lc.name, "ConvAccumulate"):
			// A Shoup product takes any left word; large ones make its
			// lazy result reach [q, 2q), which the sums must fold.
			for k := range in {
				for i := range in[k] {
					if rng.Intn(2) == 0 {
						in[k][i] = rng.Uint64() | 1<<63
					}
				}
			}
		}
		var got, want [][]uint64
		for _, vec := range []bool{false, true} {
			useAVX512 = vec
			out := [][]uint64{make([]uint64, n), make([]uint64, n)}
			lc.run(in, out)
			if vec {
				got = out
			} else {
				want = out
			}
		}
		for k := range want {
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Fatalf("%s n=%d q=%d: output %d word %d: avx512 %d, go %d", lc.name, n, q, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
}

// TestVectorLanesMatchGo feeds each lane kernel the lazy-range edges 0,
// q−1, 2q−1, 2q and 4q−1 mixed with draws below 4q, under 30-, 45-, 58-
// and 61-bit primes at limb lengths 2^3 to 2^14, and compares its vector
// body with its Go loop word for word. A length that is not a multiple of
// 8 must take the Go loop: the vector wrappers panic on it.
func TestVectorLanesMatchGo(t *testing.T) {
	if !hasAVX512 {
		t.Skip("this CPU (or its OS) offers no AVX-512 F/DQ: only the Go loops run here")
	}
	for _, bits := range sweepBits {
		for logN := 3; logN <= 14; logN++ {
			q := testPrime(t, 1<<logN, bits)
			checkLanesMatchGo(t, q, 1<<logN, rand.New(rand.NewSource(int64(100*logN+bits))))
		}
		checkLanesMatchGo(t, testPrime(t, 8, bits), 8*5+3, rand.New(rand.NewSource(int64(bits))))
	}
}

// FuzzVectorLanesMatchGo drives the same comparison from fuzzed seeds,
// lengths and prime widths.
func FuzzVectorLanesMatchGo(f *testing.F) {
	for i, bits := range sweepBits {
		f.Add(int64(i), uint16(8<<i), uint8(bits))
	}
	f.Add(int64(9), uint16(13), uint8(61))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, bits uint8) {
		if !hasAVX512 {
			t.Skip("this CPU (or its OS) offers no AVX-512 F/DQ: only the Go loops run here")
		}
		bits = 30 + bits%32
		qs, err := rns.GenerateNTTPrimes(int(bits), 3, 1)
		if err != nil {
			t.Skip(err)
		}
		checkLanesMatchGo(t, qs[0], 1+int(n)%4096, rand.New(rand.NewSource(seed)))
	})
}

// TestAccumulateSmallSourcesAgainstBigInt: the base conversion's
// accumulate returns Σ_j z_j·(Q/q_j) mod p exactly, for canonical z at
// both ends of its range, from one- and two-limb sources (the rescale's
// and the special-pair mod-down's shapes) and a four-limb one, with
// source moduli larger and smaller than the target, into 40- and 61-bit
// targets and a hand-built modulus above the lazy gate.
func TestAccumulateSmallSourcesAgainstBigInt(t *testing.T) {
	p61, err := rns.GenerateNTTPrimes(61, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	p40, err := rns.GenerateNTTPrimes(40, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	const largest64 = uint64(0xffffffffffffffc5) // largest 64-bit prime
	dst := []uint64{p40[1], p40[2], p61[4], p61[5], largest64}
	sources := [][]uint64{
		{p61[0]},                         // one limb, larger than the 40-bit targets
		{p40[0]},                         // one limb, smaller than the 61-bit targets
		{p61[0], p61[1]},                 // a 61-bit pair
		{p61[1], p40[0]},                 // a mixed pair
		{p61[0], p40[0], p61[2], p61[3]}, // the general sum
	}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		const n = 256
		for _, src := range sources {
			Q := big.NewInt(1)
			for _, q := range src {
				Q.Mul(Q, new(big.Int).SetUint64(q))
			}
			z := make([][]uint64, len(src))
			qHat := make([]*big.Int, len(src))
			for j, q := range src {
				qHat[j] = new(big.Int).Div(Q, new(big.Int).SetUint64(q))
				z[j] = make([]uint64, n)
				for i := range z[j] {
					z[j][i] = rng.Uint64() % q
				}
				z[j][0], z[j][1] = q-1, 0
				z[j][2+j] = q - 1 // and one coefficient per limb at q−1 alone
			}
			for _, p := range dst {
				pb := new(big.Int).SetUint64(p)
				f := make([]uint64, len(src))
				fs := make([]uint64, len(src))
				for j := range src {
					f[j] = new(big.Int).Mod(qHat[j], pb).Uint64()
					fs[j] = rns.ShoupPrecomp(f[j], p)
				}
				acc := make([]uint64, n)
				ConvAccumulate(acc, z, f, fs, rns.NewBarrettParams(p))
				for i := 0; i < n; i++ {
					sum := new(big.Int)
					for j := range src {
						sum.Add(sum, new(big.Int).Mul(qHat[j], new(big.Int).SetUint64(z[j][i])))
					}
					if want := sum.Mod(sum, pb).Uint64(); acc[i] != want {
						t.Fatalf("source %v, target %d, coeff %d: got %d, want %d", src, p, i, acc[i], want)
					}
				}
			}
		}
	})
}

// TestAddSubModAgainstBigInt: the limb AddMod and SubMod agree with exact
// arithmetic for canonical operands, on the extremes 0, 1, q−2 and q−1 and
// on random draws, under NTT primes of every sweep width (the vector
// bodies) and moduli at and above 2^63 (AddMod's Go loop under the gate).
func TestAddSubModAgainstBigInt(t *testing.T) {
	moduli := []uint64{1<<63 + 1, 0xffffffffffffffc5}
	for _, bits := range sweepBits {
		moduli = append(moduli, testPrime(t, 8, bits))
	}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		const n = 256
		for _, q := range moduli {
			qb := new(big.Int).SetUint64(q)
			a, b := make([]uint64, n), make([]uint64, n)
			edges := []uint64{0, 1, q - 2, q - 1}
			for i := range a {
				a[i], b[i] = rng.Uint64()%q, rng.Uint64()%q
				if i < 4*len(edges) {
					a[i], b[i] = edges[i%len(edges)], edges[i/len(edges)]
				}
			}
			sum, diff := make([]uint64, n), make([]uint64, n)
			AddMod(sum, a, b, q)
			SubMod(diff, a, b, q)
			for i := range a {
				ab, bb := new(big.Int).SetUint64(a[i]), new(big.Int).SetUint64(b[i])
				s := new(big.Int).Add(ab, bb)
				if want := s.Mod(s, qb).Uint64(); sum[i] != want {
					t.Fatalf("AddMod(%d, %d, %d) = %d, want %d", a[i], b[i], q, sum[i], want)
				}
				d := new(big.Int).Sub(ab, bb)
				if want := d.Mod(d, qb).Uint64(); diff[i] != want {
					t.Fatalf("SubMod(%d, %d, %d) = %d, want %d", a[i], b[i], q, diff[i], want)
				}
			}
		}
	})
}
