package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"cinnamon/internal/rns"
)

// Core micro-benchmarks for the transforms and the fused entry points the
// keyswitch runs per digit and per limb (ForwardMulAccPair absorbs a
// digit, ForwardSubMul is the mod-down combine, InverseScaledFrom the
// digit decompose), at the deep-session (7), mid (10), serving (12) and
// largest (14) ring sizes, once per kernel set:
//
//	go test ./internal/ntt -run xxx -bench BenchmarkCore
//
// Each iteration restores the consumed input from a canonical copy, so
// every call transforms a valid coefficient-domain limb.

var benchCoreLogN = []int{7, 10, 12, 14}

func benchTable(b *testing.B, logN int) (*Table, []uint64, []uint64, []uint64) {
	b.Helper()
	n := 1 << logN
	qs, err := rns.GenerateNTTPrimes(55, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	tb, err := NewTable(n, qs[0])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(logN)))
	return tb, randPoly(rng, n, tb.Q), randPoly(rng, n, tb.Q), randPoly(rng, n, tb.Q)
}

// benchCore runs f as one sub-benchmark per ring size and kernel set
// ("go", "avx512"); the avx512 rows skip on a CPU without AVX-512 F/DQ.
func benchCore(b *testing.B, f func(b *testing.B, logN int)) {
	host := useAVX512
	defer func() { useAVX512 = host }()
	for _, logN := range benchCoreLogN {
		for _, vec := range []bool{false, true} {
			name := fmt.Sprintf("logN=%d/go", logN)
			if vec {
				name = fmt.Sprintf("logN=%d/avx512", logN)
			}
			b.Run(name, func(b *testing.B) {
				if vec && !hasAVX512 {
					b.Skip("this CPU (or its OS) offers no AVX-512 F/DQ")
				}
				useAVX512 = vec
				f(b, logN)
			})
		}
	}
}

func BenchmarkCoreForward(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, src, _, _ := benchTable(b, logN)
		a := make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, src)
			tb.Forward(a)
		}
	})
}

func BenchmarkCoreInverse(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, src, _, _ := benchTable(b, logN)
		a := make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, src)
			tb.Inverse(a)
		}
	})
}

func BenchmarkCoreForwardMulAccPair(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, src, b0, b1 := benchTable(b, logN)
		a := make([]uint64, tb.N)
		h0, l0 := make([]uint64, tb.N), make([]uint64, tb.N)
		h1, l1 := make([]uint64, tb.N), make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, src)
			tb.ForwardMulAccPair(a, b0, b1, h0, l0, h1, l1)
		}
	})
}

func BenchmarkCoreForwardSubMul(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, src, nttSrc, _ := benchTable(b, logN)
		w := tb.Q / 3
		ws := rns.ShoupPrecomp(w, tb.Q)
		a, out := make([]uint64, tb.N), make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(a, src)
			tb.ForwardSubMul(a, nttSrc, out, w, ws)
		}
	})
}

func BenchmarkCoreInverseScaledFrom(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, src, _, _ := benchTable(b, logN)
		wx, wxs, wy, wys := tb.ScaledLastPair(tb.Q / 3)
		dst := make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.InverseScaledFrom(src, dst, wx, wxs, wy, wys)
		}
	})
}

// The lane kernels, one limb per call, with ns per coefficient reported
// beside ns per call. ConvAccumulate runs the two-limb source of a
// special-pair mod-down or an alpha = 2 keyswitch digit.

func reportPerCoeff(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/coef")
}

func BenchmarkCoreConvAccumulate(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, z0, z1, _ := benchTable(b, logN)
		q := tb.Q
		f := []uint64{q / 3, q / 5}
		fs := []uint64{rns.ShoupPrecomp(f[0], q), rns.ShoupPrecomp(f[1], q)}
		bp := rns.NewBarrettParams(q)
		acc := make([]uint64, tb.N)
		z := [][]uint64{z0, z1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ConvAccumulate(acc, z, f, fs, bp)
		}
		reportPerCoeff(b, tb.N)
	})
}

func BenchmarkCoreMulShoup(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, x, _, _ := benchTable(b, logN)
		w := tb.Q / 3
		ws := rns.ShoupPrecomp(w, tb.Q)
		out := make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulShoup(out, x, w, ws, tb.Q)
		}
		reportPerCoeff(b, tb.N)
	})
}

func BenchmarkCoreMulCoeffs(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, x, y, _ := benchTable(b, logN)
		bp := rns.NewBarrettParams(tb.Q)
		out := make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulBarrett(out, x, y, bp)
		}
		reportPerCoeff(b, tb.N)
	})
}

func BenchmarkCoreAddMod(b *testing.B) {
	benchCore(b, func(b *testing.B, logN int) {
		tb, x, y, _ := benchTable(b, logN)
		out := make([]uint64, tb.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AddMod(out, x, y, tb.Q)
		}
		reportPerCoeff(b, tb.N)
	})
}
