package workloads

import (
	"math/rand"

	"cinnamon/internal/ckks"
	"cinnamon/internal/dsl"
	"cinnamon/internal/tensor"
)

// This file defines catalog workloads whose multiplicative depth exceeds
// any practical modulus chain — they only serve with mid-program
// bootstrapping (internal/sched). The model is the paper's HELR training
// shape: many iterations of a logistic layer, each iteration a mix step, a
// cubic sigmoid approximation and a bias.

// Coefficients of the degree-3 least-squares sigmoid approximation
// σ̃(t) = 0.5 + 0.197·t − 0.004·t³ (the standard HELR polynomial), and the
// 0.5 mixing weight producing t = 0.5·(x + rot(x,1)).
const (
	deepMix = 0.5
	deepC1  = 0.197
	deepC3  = 0.004
	deepB   = 0.5
)

// deepIters is the iteration count of logreg16-deep: 4 levels per
// iteration, 20 total — deeper than any chain the emulator hosts, so the
// program always crosses at least one bootstrap on a 16-level chain.
const deepIters = 5

func deepBroadcast(w float64) func(slots int) []complex128 {
	return func(slots int) []complex128 {
		v := make([]complex128, slots)
		for i := range v {
			v[i] = complex(w, 0)
		}
		return v
	}
}

// ServeBootstrapParamsLiteral is ServeParamsLiteral plus a sparse secret
// (the bootstrap EvalMod interval bound needs low Hamming weight).
func ServeBootstrapParamsLiteral(logN, levels int, seed int64) ckks.ParametersLiteral {
	lit := ServeParamsLiteral(logN, levels, seed)
	lit.HammingWeight = 32
	return lit
}

// DeepServeWorkloads returns the bootstrap-requiring catalog entries.
func DeepServeWorkloads() []ServeWorkload {
	plaintexts := []tensor.PlaintextSpec{
		{Name: "deep.mix", Values: deepBroadcast(deepMix)},
		{Name: "deep.c1", Values: deepBroadcast(deepC1)},
		{Name: "deep.c3", Values: deepBroadcast(deepC3)},
		{Name: "deep.b", Values: deepBroadcast(deepB)},
	}
	return []ServeWorkload{{
		Name:        "logreg16-deep",
		Description: "5 HELR logistic iterations: x ← σ̃(0.5·(x + rot(x,1))), σ̃ cubic (depth 20, needs bootstrapping)",
		Plaintexts:  plaintexts,
		MinLevels:   4 * deepIters,
		VerifyTol:   5e-2,
		Build: func(s *dsl.Stream, x *dsl.Ciphertext) *dsl.Ciphertext {
			for i := 0; i < deepIters; i++ {
				// t = 0.5·(x + rot(x,1)); each iteration consumes 4 levels:
				// mix, t², t³, and the c1/c3 ladder.
				t := x.Add(x.Rotate(1)).MulPlain("deep.mix").Rescale()
				t2 := t.Mul(t).Rescale()
				t3 := t2.Mul(t).Rescale()
				a := t.MulPlain("deep.c1").Rescale()
				b := t3.MulPlain("deep.c3").Rescale()
				x = a.Sub(b).AddPlain("deep.b")
			}
			return x
		},
		MakeInput: func(rng *rand.Rand, slots int) []complex128 {
			// Real inputs in [0,1]: σ̃ maps [0,1] into itself, so every
			// iteration stays inside the bootstrap headroom bound.
			v := make([]complex128, slots)
			for i := range v {
				v[i] = complex(rng.Float64(), 0)
			}
			return v
		},
		EvalPlain: func(in []complex128) []complex128 {
			n := len(in)
			x := append([]complex128(nil), in...)
			next := make([]complex128, n)
			for i := 0; i < deepIters; i++ {
				for j := 0; j < n; j++ {
					t := deepMix * (x[j] + x[(j+1)%n])
					next[j] = complex(deepB, 0) + complex(deepC1, 0)*t - complex(deepC3, 0)*t*t*t
				}
				x, next = next, x
			}
			return x
		},
	}}
}
