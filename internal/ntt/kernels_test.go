package ntt

import (
	"math/rand"
	"testing"

	"cinnamon/internal/rns"
)

// forEachKernel runs f once per kernel set: "go" with the vector bodies
// off, and "avx512" with them on, under -race too. Where the CPU has no
// AVX-512 F/DQ the avx512 subtest skips and says so.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	host := useAVX512
	defer func() { useAVX512 = host }()
	t.Run("go", func(t *testing.T) {
		useAVX512 = false
		f(t)
	})
	t.Run("avx512", func(t *testing.T) {
		if !hasAVX512 {
			t.Skip("this CPU (or its OS) offers no AVX-512 F/DQ: the go subtest covered the only kernel set")
		}
		useAVX512 = true
		f(t)
	})
}

// edgePoly draws n words from the lazy-range edges 0, q−1, 2q−1, 2q and
// 4q−1, mixed with uniform draws below 4q.
func edgePoly(rng *rand.Rand, n int, q uint64) []uint64 {
	edges := [...]uint64{0, q - 1, 2*q - 1, 2 * q, 4*q - 1}
	a := make([]uint64, n)
	for i := range a {
		if k := rng.Intn(2 * len(edges)); k < len(edges) {
			a[i] = edges[k]
		} else {
			a[i] = rng.Uint64() % (4 * q)
		}
	}
	return a
}

// passCase is one NTT pass run on operands of length N: the data a, a
// second operand b (src, add or b0), an output or third operand c, and the
// accumulators of fwdLastMulAccPair.
type passCase struct {
	name string
	run  func(a, b, c []uint64, acc [][]uint64)
}

// vectorPasses lists every pass that has a vector body, each at every
// width the transforms call it with on tb, and the wide-accumulator
// kernels at length N.
func vectorPasses(tb *Table, rng *rand.Rand) []passCase {
	n, q, twoQ := tb.N, tb.Q, tb.twoQ
	fw, iw := tb.twF, tb.twI
	s := rng.Uint64() % q
	ss := rns.ShoupPrecomp(s, q)
	wx, wxs, wy, wys := tb.ScaledLastPair(s)
	cs := []passCase{
		{"fwdFirst", func(a, b, c []uint64, _ [][]uint64) { fwdFirst(a[:n/2], a[n/2:], fw[2], fw[3], q, twoQ) }},
		{"fwd4Span2", func(a, b, c []uint64, _ [][]uint64) { fwd4Span2(a, fw[n/4:n/2], fw[n/2:n], q, twoQ) }},
		{"fwdLast", func(a, b, c []uint64, _ [][]uint64) { tb.fwdLast(a) }},
		{"fwdLastSubMul", func(a, b, c []uint64, _ [][]uint64) { tb.fwdLastSubMul(a, b, c, s, ss) }},
		{"fwdLastMulAccPair", func(a, b, c []uint64, acc [][]uint64) {
			tb.fwdLastMulAccPair(a, b, c, acc[0], acc[1], acc[2], acc[3])
		}},
		{"MulAccWide", func(a, b, c []uint64, acc [][]uint64) { MulAccWide(acc[0], acc[1], a, b) }},
		{"ReduceWide", func(a, b, c []uint64, _ [][]uint64) { ReduceWide(c, a, b, rns.NewBarrettParams(tb.Q)) }},
		{"ReduceWideInPlace", func(a, b, c []uint64, _ [][]uint64) { ReduceWide(b, a, b, rns.NewBarrettParams(tb.Q)) }},
		{"invFirst", func(a, b, c []uint64, _ [][]uint64) { invFirst(a, a, iw[n:], q, twoQ) }},
		{"invFirstFrom", func(a, b, c []uint64, _ [][]uint64) { invFirst(c, a, iw[n:], q, twoQ) }},
		{"inv4Span2", func(a, b, c []uint64, _ [][]uint64) { inv4Span2(a, iw[n/2:n], iw[n/4:n/2], q, twoQ) }},
		{"inv2", func(a, b, c []uint64, _ [][]uint64) { inv2(a[:n/2], a[n/2:], iw[4], iw[5], q, twoQ) }},
		{"invLastScaled", func(a, b, c []uint64, _ [][]uint64) { tb.invLastScaled(a, wx, wxs, wy, wys) }},
	}
	for m := 1; 32*m <= n; m <<= 1 {
		h := n / (4 * m)
		cs = append(cs, passCase{"fwd4Pass", func(a, b, c []uint64, _ [][]uint64) {
			fwd4Pass(a, fw[2*m:4*m], fw[4*m:8*m], h, q, twoQ)
		}})
	}
	for step := 8; 4*step <= n; step <<= 1 {
		h := n / (4 * step)
		cs = append(cs, passCase{"inv4Pass", func(a, b, c []uint64, _ [][]uint64) {
			inv4Pass(a, iw[4*h:8*h], iw[2*h:4*h], step, q, twoQ)
		}})
	}
	return cs
}

// checkPassesMatchGo runs every vector pass and its Go loop on the same
// edge-heavy operands and requires equal words everywhere.
func checkPassesMatchGo(t *testing.T, tb *Table, rng *rand.Rand) {
	t.Helper()
	host := useAVX512
	defer func() { useAVX512 = host }()
	for _, pc := range vectorPasses(tb, rng) {
		in := make([][]uint64, 7)
		for k := range in {
			in[k] = edgePoly(rng, tb.N, tb.Q)
		}
		var got, want [][]uint64
		for _, vec := range []bool{false, true} {
			useAVX512 = vec
			ops := make([][]uint64, len(in))
			for k := range in {
				ops[k] = append([]uint64(nil), in[k]...)
			}
			pc.run(ops[0], ops[1], ops[2], ops[3:])
			if vec {
				got = ops
			} else {
				want = ops
			}
		}
		for k := range want {
			for i := range want[k] {
				if got[k][i] != want[k][i] {
					t.Fatalf("%s N=%d q=%d: operand %d word %d: avx512 %d, go %d", pc.name, tb.N, tb.Q, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
}

// TestVectorPassesMatchGo feeds each vector pass the lazy-range edges
// under 30-, 45-, 58- and 61-bit primes at every dimension with a vector
// body, and compares it with its Go loop word for word.
func TestVectorPassesMatchGo(t *testing.T) {
	if !hasAVX512 {
		t.Skip("this CPU (or its OS) offers no AVX-512 F/DQ: only the Go loops run here")
	}
	for logN := 4; logN <= 12; logN++ {
		for _, bits := range sweepBits {
			tb, err := NewTable(1<<logN, testPrime(t, 1<<logN, bits))
			if err != nil {
				t.Fatal(err)
			}
			checkPassesMatchGo(t, tb, rand.New(rand.NewSource(int64(100*logN+bits))))
		}
	}
}

// FuzzVectorPassesMatchGo drives the same comparison from fuzzed seeds,
// dimensions and prime widths.
func FuzzVectorPassesMatchGo(f *testing.F) {
	for i, bits := range sweepBits {
		f.Add(int64(i), uint8(4+i), uint8(bits))
	}
	f.Fuzz(func(t *testing.T, seed int64, logN, bits uint8) {
		if !hasAVX512 {
			t.Skip("this CPU (or its OS) offers no AVX-512 F/DQ: only the Go loops run here")
		}
		logN = 4 + logN%9
		bits = 30 + bits%32
		qs, err := rns.GenerateNTTPrimes(int(bits), int(logN), 1)
		if err != nil {
			t.Skip(err)
		}
		tb, err := NewTable(1<<logN, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		checkPassesMatchGo(t, tb, rand.New(rand.NewSource(seed)))
	})
}

// TestVectorWrappersRejectShortOperands checks that an operand shorter
// than the kernel walks (past its capacity), an empty pass or a length the
// kernel cannot step panics in the Go wrapper, before any vector load.
func TestVectorWrappersRejectShortOperands(t *testing.T) {
	if !hasAVX512 {
		t.Skip("this CPU (or its OS) offers no AVX-512 F/DQ: only the Go loops run here")
	}
	tb := newTestTable(t, 6)
	n, q, twoQ := tb.N, tb.Q, tb.twoQ
	full, short := make([]uint64, n), make([]uint64, n-8)
	bp, two := rns.NewBarrettParams(q), []uint64{1, 1}
	cases := map[string]func(){
		"fwd4 short data":              func() { fwd4Vec(short, tb.twF[2:4], tb.twF[4:8], n/4, q, twoQ) },
		"fwd4 no groups":               func() { fwd4Vec(full, nil, nil, 8, q, twoQ) },
		"fwd2 length not 8k":           func() { fwd2Vec(full[:12], full[12:24], 1, 1, q, twoQ) },
		"fwdLast short twiddles":       func() { fwdLastVec(full, short, q, twoQ) },
		"inv4 short twiddles":          func() { inv4Vec(full, make([]uint64, 2), make([]uint64, 2), n/4, q, twoQ) },
		"MulAccWide short y":           func() { MulAccWide(full, full, full, short) },
		"ReduceWide short hi":          func() { ReduceWide(full, short, full, bp) },
		"MulAccWideScalar short lo":    func() { MulAccWideScalar(full, short, full, 1) },
		"MulBarrett short b":           func() { MulBarrett(full, full, short, bp) },
		"MulShoup short x":             func() { MulShoup(full, short, 1, 1, q) },
		"AddMod short b":               func() { AddMod(full, full, short, q) },
		"SubMod short a":               func() { SubMod(full, short, full, q) },
		"ConvAccumulate short source":  func() { ConvAccumulate(full, [][]uint64{full, short}, two, two, bp) },
		"ConvAccumulate short factors": func() { ConvAccumulate(full, [][]uint64{full, full}, []uint64{1}, two, bp) },
		"ConvAccumulate no sources":    func() { convAccVec(full, nil, nil, nil, q) },
		"ConvAccumulate three sources": func() { convAccVec(full, [][]uint64{full, full, full}, two, two, q) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
