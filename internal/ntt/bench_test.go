package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"cinnamon/internal/rns"
)

// Core micro-benchmarks for the fused transform entry points the
// keyswitch runs per digit and per limb (ForwardMulAccPair absorbs a
// digit, ForwardSubMul is the mod-down combine, InverseScaledFrom the
// digit decompose), at the deep-session (7), mid (10) and serving (12)
// ring sizes:
//
//	go test ./internal/ntt -run xxx -bench BenchmarkCore
//
// Each iteration restores the consumed input from a canonical copy, so
// every call transforms a valid coefficient-domain limb.

var benchCoreLogN = []int{7, 10, 12}

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

func BenchmarkCoreForwardMulAccPair(b *testing.B) {
	for _, logN := range benchCoreLogN {
		b.Run(fmt.Sprintf("logN=%d", logN), func(b *testing.B) {
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
}

func BenchmarkCoreForwardSubMul(b *testing.B) {
	for _, logN := range benchCoreLogN {
		b.Run(fmt.Sprintf("logN=%d", logN), func(b *testing.B) {
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
}

func BenchmarkCoreInverseScaledFrom(b *testing.B) {
	for _, logN := range benchCoreLogN {
		b.Run(fmt.Sprintf("logN=%d", logN), func(b *testing.B) {
			tb, src, _, _ := benchTable(b, logN)
			wx, wxs, wy, wys := tb.ScaledLastPair(tb.Q / 3)
			dst := make([]uint64, tb.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.InverseScaledFrom(src, dst, wx, wxs, wy, wys)
			}
		})
	}
}
