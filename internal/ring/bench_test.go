package ring

import (
	"testing"

	"cinnamon/internal/rns"
)

// Core micro-benchmarks for the limb-level kernels, each a serial loop
// over the limbs:
//
//	go test ./internal/ring -bench BenchmarkCore
//
// Parameters are paper-representative: N = 2^13 with an 8-limb chain plus
// 2 extension limbs (the functional tests run smaller; the paper's full
// scale is N = 2^16).

const (
	benchLogN  = 13
	benchLimbs = 8
	benchExt   = 2
)

type benchCtx struct {
	r     *Ring
	chain rns.Basis // benchLimbs chain moduli
	ext   rns.Basis // benchExt extension moduli
	union rns.Basis
}

func newBenchCtx(b *testing.B) *benchCtx {
	b.Helper()
	qs, err := rns.GenerateNTTPrimes(55, benchLogN, benchLimbs)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := rns.GenerateNTTPrimes(58, benchLogN, benchExt)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := rns.NewBasis(qs)
	if err != nil {
		b.Fatal(err)
	}
	ext, err := rns.NewBasis(ps)
	if err != nil {
		b.Fatal(err)
	}
	union, err := chain.Union(ext)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(1<<benchLogN, union)
	if err != nil {
		b.Fatal(err)
	}
	return &benchCtx{r: r, chain: chain, ext: ext, union: union}
}

func (c *benchCtx) uniform(seed int64, basis rns.Basis) *Poly {
	return NewSampler(c.r, seed).UniformPoly(basis)
}

func BenchmarkCoreNTT(b *testing.B) {
	c := newBenchCtx(b)
	p := c.uniform(1, c.chain)
	b.SetBytes(int64(benchLimbs * (1 << benchLogN) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.IsNTT = false
		if err := c.r.NTT(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreINTT(b *testing.B) {
	c := newBenchCtx(b)
	p := c.uniform(2, c.chain)
	p.IsNTT = true
	b.SetBytes(int64(benchLimbs * (1 << benchLogN) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.IsNTT = true
		if err := c.r.INTT(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreMulCoeffs(b *testing.B) {
	c := newBenchCtx(b)
	x := c.uniform(3, c.chain)
	y := c.uniform(4, c.chain)
	out := c.r.NewPoly(c.chain)
	x.IsNTT, y.IsNTT, out.IsNTT = true, true, true
	b.SetBytes(int64(benchLimbs * (1 << benchLogN) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.r.MulCoeffs(x, y, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreAdd(b *testing.B) {
	c := newBenchCtx(b)
	x := c.uniform(5, c.chain)
	y := c.uniform(6, c.chain)
	out := c.r.NewPoly(c.chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.r.Add(x, y, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreAutomorphism(b *testing.B) {
	c := newBenchCtx(b)
	p := c.uniform(7, c.chain)
	p.IsNTT = true
	out := c.r.NewPoly(c.chain)
	out.IsNTT = true
	gal := c.r.GaloisElementForRotation(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.r.Automorphism(p, gal, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreModUp(b *testing.B) {
	c := newBenchCtx(b)
	p := c.uniform(8, c.chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := c.r.ModUp(p, c.ext)
		if err != nil {
			b.Fatal(err)
		}
		c.r.PutPoly(ext)
	}
}

func BenchmarkCoreModDown(b *testing.B) {
	c := newBenchCtx(b)
	p := c.uniform(9, c.union)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		down, err := c.r.ModDown(p, c.ext)
		if err != nil {
			b.Fatal(err)
		}
		c.r.PutPoly(down)
	}
}

func BenchmarkCoreRescale(b *testing.B) {
	c := newBenchCtx(b)
	p := c.uniform(10, c.chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.r.Rescale(p)
		if err != nil {
			b.Fatal(err)
		}
		c.r.PutPoly(out)
	}
}

// BenchmarkCoreMulModKernels compares the per-element modular multiply
// kernels: the generic bits.Div64 path, the precomputed two-word Barrett
// path the hot loops now use, and the Shoup path (fixed multiplicand).
func BenchmarkCoreMulModKernels(b *testing.B) {
	c := newBenchCtx(b)
	q := c.chain.Moduli[0]
	x := c.uniform(11, rns.Basis{Moduli: []uint64{q}}).Limbs[0]
	y := c.uniform(12, rns.Basis{Moduli: []uint64{q}}).Limbs[0]
	out := make([]uint64, len(x))
	b.Run("Div64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range out {
				out[k] = rns.MulMod(x[k], y[k], q)
			}
		}
	})
	b.Run("Barrett", func(b *testing.B) {
		bp := rns.NewBarrettParams(q)
		for i := 0; i < b.N; i++ {
			for k := range out {
				out[k] = bp.MulMod(x[k], y[k])
			}
		}
	})
	b.Run("Shoup", func(b *testing.B) {
		w := y[0]
		ws := rns.ShoupPrecomp(w, q)
		for i := 0; i < b.N; i++ {
			for k := range out {
				out[k] = rns.MulModShoup(x[k], w, ws, q)
			}
		}
	})
}

// BenchmarkCorePolyPool measures GetPoly/PutPoly against NewPoly; allocs/op
// is the interesting column.
func BenchmarkCorePolyPool(b *testing.B) {
	c := newBenchCtx(b)
	b.Run("NewPoly", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = c.r.NewPoly(c.chain)
		}
	})
	b.Run("GetPut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := c.r.GetPoly(c.chain)
			c.r.PutPoly(p)
		}
	})
}
