package ntt

import "cinnamon/internal/rns"

// Fused transform kernels. The NTT is never an end in itself: in the
// keyswitch inner product every forward transform feeds a pointwise
// multiply (often two, against both halves of an evaluation key), and
// every inverse transform of a partial sum is preceded by an add or a
// wide-accumulator reduction. Materializing the intermediate polynomial
// between those steps costs one full write plus one full read of the limb
// per fusion opportunity — pure memory traffic the GPU FHE literature
// eliminates by kernel fusion, and which applies identically on CPU.
//
// The kernels here split the transform into one main body per direction
// and interchangeable boundary stages:
//
//   - forwardMain runs Cooley-Tukey stages m = 1 .. N/4, leaving
//     last-stage inputs in [0, 4q);
//   - fwdLast / fwdLastMulAccPair / fwdLastSubMul finish the transform
//     with, respectively, a canonical store, a fused multiply-accumulate
//     into two 128-bit accumulators (the keyswitch digit absorb,
//     ForwardMulAccPair), or the fused mod-down combine (ForwardSubMul);
//   - inverseMain runs Gentleman-Sande stages m = N .. 4, optionally
//     reading its first stage from another buffer (the keyswitch
//     decompose's out-of-place transform, InverseScaledFrom);
//   - invLast / invLastScaled finish with the N⁻¹ folding (times a
//     caller's scalar) and canonical correction.
//
// Forward and Inverse are forwardMain+fwdLast and inverseMain+invLast, so
// every transform in the process runs one butterfly body per direction.
//
// The fused multiply-accumulate needs no canonical correction at all: the
// lazy butterfly outputs are < 4q, the products stay congruent mod q, and
// the accumulator's final Barrett reduction canonicalizes. The two
// conditional subtractions of the plain last stage simply vanish.
//
// The main bodies are radix-4: each pass loads four quarter spans, runs
// two radix-2 stages on them in registers and stores once, so a transform
// sweeps the limb half as often. Every coefficient still meets the same
// lazy butterflies in the same order as the stage-by-stage transform —
// the butterflies of one stage are independent, so regrouping them
// changes no value — and the output is bit-identical to it. The loops
// live in small out-of-line functions over equal-length spans, so they
// carry no bounds checks and no per-group setup; spans of width 2 (and the
// inverse's width-1 first stage) run as whole-stage loops instead of one
// call per group.
//
// Each pass is one function that runs its AVX-512 body (kernels_amd64.s)
// when useAVX512 is set and its Go loop otherwise. The two compute the
// same integers lane for lane (DESIGN.md §10); the Go loops are the
// portable path and the reference the vector bodies are tested against.

// ct is the lazy Cooley-Tukey butterfly: inputs < 4q, outputs < 4q.
func ct(x, y, w, ws, q, twoQ uint64) (uint64, uint64) {
	u := rns.Reduce2Q(x, twoQ)
	v := rns.MulModShoupLazy(y, w, ws, q)
	return u + v, u + twoQ - v
}

// gs is the lazy Gentleman-Sande butterfly: inputs < 2q, outputs < 2q.
func gs(x, y, w, ws, q, twoQ uint64) (uint64, uint64) {
	return rns.AddModLazy(x, y, twoQ), rns.MulModShoupLazy(x+twoQ-y, w, ws, q)
}

// forwardMain runs all forward stages except the last (inputs canonical,
// outputs < 4q). For N ≤ 2 there is nothing to do: the single stage is the
// last stage. Stage m has m butterfly groups N/(2m) apart, group i under
// twiddle m+i. When the stage count (log N − 1) is odd the first stage runs
// alone, skipping Reduce2Q on its canonical inputs; every other stage
// pairs into a radix-4 pass (where the first stage's Reduce2Q is a no-op).
func (t *Table) forwardMain(a []uint64) {
	n := t.N
	if n <= 2 {
		return
	}
	q, twoQ, tw := t.Q, t.twoQ, t.twF
	m, step := 1, n>>1
	if t.logN&1 == 0 {
		fwdFirst(a[:step:step], a[step:n:n], tw[2], tw[3], q, twoQ)
		m, step = 2, step>>1
	}
	// Pass (m, 2m): group i of stage m pairs quarters (x0,x2) and (x1,x3)
	// under twiddle m+i; stage 2m pairs (x0,x1) under 2m+2i and (x2,x3)
	// under 2m+2i+1. The quarter span h is 2 in the last pass and a
	// multiple of 8 before it.
	for ; m <= n>>2; m, step = m<<2, step>>2 {
		if h := step >> 1; h == 2 {
			fwd4Span2(a[:8*m], tw[2*m:4*m], tw[4*m:8*m], q, twoQ)
		} else {
			fwd4Pass(a[:4*m*h], tw[2*m:4*m], tw[4*m:8*m], h, q, twoQ)
		}
	}
}

// fwdFirst is the forward lone first stage over the halves x, y under one
// twiddle pair. Its inputs are canonical, so it skips Reduce2Q.
func fwdFirst(x, y []uint64, w, ws, q, twoQ uint64) {
	if useAVX512 && len(x) >= 8 {
		fwd2Vec(x, y, w, ws, q, twoQ)
		return
	}
	y = y[:len(x)]
	for i := range x {
		u := x[i]
		v := rns.MulModShoupLazy(y[i], w, ws, q)
		x[i], y[i] = u+v, u+twoQ-v
	}
}

// fwd4Pass is a whole forward radix-4 pass over m = len(t1)/2 groups of
// four quarter spans of width h, a multiple of 8: one stage-m twiddle pair
// (t1) and two stage-2m pairs (t2) per group.
func fwd4Pass(a, t1, t2 []uint64, h int, q, twoQ uint64) {
	if useAVX512 {
		fwd4Vec(a, t1, t2, h, q, twoQ)
		return
	}
	for i := 0; i < len(t1)/2; i++ {
		b := a[4*i*h : 4*(i+1)*h]
		fwd4(b[:h:h], b[h:2*h:2*h], b[2*h:3*h:3*h], b[3*h:], t1[2*i:2*i+2], t2[4*i:4*i+4], q, twoQ)
	}
}

// fwd4 is one forward radix-4 group over four equal quarter spans: one
// stage-m twiddle pair (w1) and two stage-2m pairs (w2).
func fwd4(x0, x1, x2, x3, w1, w2 []uint64, q, twoQ uint64) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	w1, w2 = w1[:2:2], w2[:4:4]
	for k := len(x0) - 1; k >= 0; k-- {
		a0, a2 := ct(x0[k], x2[k], w1[0], w1[1], q, twoQ)
		a1, a3 := ct(x1[k], x3[k], w1[0], w1[1], q, twoQ)
		x0[k], x1[k] = ct(a0, a1, w2[0], w2[1], q, twoQ)
		x2[k], x3[k] = ct(a2, a3, w2[2], w2[3], q, twoQ)
	}
}

// fwd4Span2 is a whole forward radix-4 pass with quarter spans of width 2:
// eight coefficients, one stage-m twiddle pair (t1) and two stage-2m pairs
// (t2) per group.
func fwd4Span2(a, t1, t2 []uint64, q, twoQ uint64) {
	if useAVX512 && len(a) >= 16 {
		fwd4Span2Vec(a, t1, t2, q, twoQ)
		return
	}
	for len(a) >= 8 && len(t1) >= 2 && len(t2) >= 4 {
		x, w1, w2 := a[:8:8], t1[:2:2], t2[:4:4]
		for k := 0; k < 2; k++ {
			a0, a2 := ct(x[k], x[k+4], w1[0], w1[1], q, twoQ)
			a1, a3 := ct(x[k+2], x[k+6], w1[0], w1[1], q, twoQ)
			x[k], x[k+2] = ct(a0, a1, w2[0], w2[1], q, twoQ)
			x[k+4], x[k+6] = ct(a2, a3, w2[2], w2[3], q, twoQ)
		}
		a, t1, t2 = a[8:], t1[2:], t2[4:]
	}
}

// fwdLast finishes a forward transform with canonical (< q) outputs;
// Forward is forwardMain + fwdLast.
func (t *Table) fwdLast(a []uint64) {
	q, twoQ := t.Q, t.twoQ
	x := a[:t.N]
	w := t.twF[t.N:][:len(x)]
	if useAVX512 && len(x) >= 16 {
		fwdLastVec(x, w, q, twoQ)
		return
	}
	for j := 0; j < len(x)-1; j += 2 {
		u, v := ct(x[j], x[j+1], w[j], w[j+1], q, twoQ)
		x[j] = rns.ReduceOnce(rns.Reduce2Q(u, twoQ), q)
		x[j+1] = rns.ReduceOnce(rns.Reduce2Q(v, twoQ), q)
	}
}

// fwdLastMulAccPair finishes a forward transform fused with the keyswitch
// digit absorb: the transform value x (computed in-register) is
// multiply-accumulated into two 128-bit accumulators, x·b0 into (h0, l0)
// and x·b1 into (h1, l1). The NTT-domain polynomial is never written to
// memory. x is deliberately left lazy (< 4q): the products stay congruent
// mod q and the accumulator's final Barrett reduction canonicalizes, so the
// two conditional subtractions per butterfly output simply vanish. The
// caller must budget each product at LazyMulAccWeight canonical units.
func (t *Table) fwdLastMulAccPair(a, b0, b1, h0, l0, h1, l1 []uint64) {
	q, twoQ := t.Q, t.twoQ
	x := a[:t.N]
	w, b0, b1 := t.twF[t.N:][:len(x)], b0[:len(x)], b1[:len(x)]
	h0, l0, h1, l1 = h0[:len(x)], l0[:len(x)], h1[:len(x)], l1[:len(x)]
	if useAVX512 && len(x) >= 16 {
		fwdLastMulAccPairVec(x, w, b0, b1, h0, l0, h1, l1, q, twoQ)
		return
	}
	for j := 0; j < len(x)-1; j += 2 {
		x0, x1 := ct(x[j], x[j+1], w[j], w[j+1], q, twoQ)
		h0[j], l0[j] = rns.MulAccLazy(h0[j], l0[j], x0, b0[j])
		h1[j], l1[j] = rns.MulAccLazy(h1[j], l1[j], x0, b1[j])
		h0[j+1], l0[j+1] = rns.MulAccLazy(h0[j+1], l0[j+1], x1, b0[j+1])
		h1[j+1], l1[j+1] = rns.MulAccLazy(h1[j+1], l1[j+1], x1, b1[j+1])
	}
}

// fwdLastSubMul finishes a forward transform fused with the mod-down
// combine: out = (src − NTT(a)) · w mod q, pointwise, with src canonical
// NTT-domain and (w, ws) a Shoup-prepared scalar (P⁻¹ mod q in the
// keyswitch). The lazy butterfly value x < 4q enters the subtraction as
// src + 4q − x ∈ (0, 5q), which the Shoup kernel (exact for any
// representative) reduces canonically — no correction of x, no store of
// the transform, no separate combine pass.
func (t *Table) fwdLastSubMul(a, src, out []uint64, w, ws uint64) {
	q, twoQ := t.Q, t.twoQ
	fourQ := twoQ << 1
	x := a[:t.N]
	tw, src, out := t.twF[t.N:][:len(x)], src[:len(x)], out[:len(x)]
	if useAVX512 && len(x) >= 16 {
		fwdLastSubMulVec(x, tw, src, out, w, ws, q, twoQ)
		return
	}
	for j := 0; j < len(x)-1; j += 2 {
		u, v := ct(x[j], x[j+1], tw[j], tw[j+1], q, twoQ)
		out[j] = rns.MulModShoup(src[j]+fourQ-u, w, ws, q)
		out[j+1] = rns.MulModShoup(src[j+1]+fourQ-v, w, ws, q)
	}
}

// ForwardSubMul computes out = (src − NTT(a)) · w mod q in one fused pass —
// the per-limb mod-down combine run directly in the NTT domain. a
// (coefficient domain) is consumed; src is canonical NTT-domain; out is
// canonical and must not alias a. Bit-identical to Forward(a) followed by
// MulModShoup(SubMod(src, a, q), w, ws, q) pointwise.
func (t *Table) ForwardSubMul(a, src, out []uint64, w, ws uint64) {
	t.forwardMain(a)
	t.fwdLastSubMul(a, src, out, w, ws)
}

// inverseMain runs all inverse stages except the last (m=2). Inputs must
// be < 2q; outputs are < 2q.
func (t *Table) inverseMain(a []uint64) {
	t.inverseMainFrom(a, a)
}

// inverseMainFrom is inverseMain with the first stage reading from src
// instead of a (writes still go to a): the input copy that otherwise
// precedes an out-of-place inverse transform folds into the first-stage
// loads for free. src == a reads a. Requires N ≥ 4.
//
// Stage m has m/2 butterfly groups, group i under twiddle m/2+i. The
// span-1 first stage (m = N) runs alone with its fused reads; radix-4
// passes follow, and when the remaining stage count is odd the widest
// stage (m = 4) runs alone at the end.
func (t *Table) inverseMainFrom(a, src []uint64) {
	q, twoQ, tw := t.Q, t.twoQ, t.twI
	n := t.N
	invFirst(a[:n:n], src, tw[n:], q, twoQ)
	// Pass (m, m/2), m/2 = 2h: stage m pairs quarters (x0,x1) under twiddle
	// 2h+2i and (x2,x3) under 2h+2i+1; stage m/2 pairs (x0,x2) and (x1,x3)
	// under h+i. The quarter span step is 2 in the first pass and a
	// multiple of 8 after it.
	m, step := n>>1, 2
	for ; m >= 8; m, step = m>>2, step<<2 {
		h := m >> 2
		if step == 2 {
			inv4Span2(a, tw[4*h:8*h], tw[2*h:4*h], q, twoQ)
		} else {
			inv4Pass(a[:4*h*step], tw[4*h:8*h], tw[2*h:4*h], step, q, twoQ)
		}
	}
	if m == 4 {
		w := tw[4:8:8]
		inv2(a[:step:step], a[step:2*step:2*step], w[0], w[1], q, twoQ)
		inv2(a[2*step:3*step:3*step], a[3*step:4*step], w[2], w[3], q, twoQ)
	}
}

// invFirst is the inverse span-1 first stage: it reads src, pairs
// neighbours under the interleaved twiddles w and writes x.
func invFirst(x, src, w []uint64, q, twoQ uint64) {
	r, w := src[:len(x)], w[:len(x)]
	if useAVX512 && len(x) >= 16 {
		invFirstVec(x, r, w, q, twoQ)
		return
	}
	for j := 0; j < len(x)-1; j += 2 {
		x[j], x[j+1] = gs(r[j], r[j+1], w[j], w[j+1], q, twoQ)
	}
}

// inv4Pass is a whole inverse radix-4 pass over h = len(tb)/2 groups of
// four quarter spans of width step, a multiple of 8: two stage-m twiddle
// pairs (ta) and one stage-m/2 pair (tb) per group.
func inv4Pass(a, ta, tb []uint64, step int, q, twoQ uint64) {
	if useAVX512 {
		inv4Vec(a, ta, tb, step, q, twoQ)
		return
	}
	for i := 0; i < len(tb)/2; i++ {
		b := a[4*i*step : 4*(i+1)*step]
		inv4(b[:step:step], b[step:2*step:2*step], b[2*step:3*step:3*step], b[3*step:], ta[4*i:4*i+4], tb[2*i:2*i+2], q, twoQ)
	}
}

// inv4 is one inverse radix-4 group over four equal quarter spans: two
// stage-m twiddle pairs (wa) and one stage-m/2 pair (wb).
func inv4(x0, x1, x2, x3, wa, wb []uint64, q, twoQ uint64) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	wa, wb = wa[:4:4], wb[:2:2]
	for k := len(x0) - 1; k >= 0; k-- {
		a0, a1 := gs(x0[k], x1[k], wa[0], wa[1], q, twoQ)
		a2, a3 := gs(x2[k], x3[k], wa[2], wa[3], q, twoQ)
		x0[k], x2[k] = gs(a0, a2, wb[0], wb[1], q, twoQ)
		x1[k], x3[k] = gs(a1, a3, wb[0], wb[1], q, twoQ)
	}
}

// inv4Span2 is a whole inverse radix-4 pass with quarter spans of width 2:
// eight coefficients, two stage-m twiddle pairs (ta) and one stage-m/2
// pair (tb) per group.
func inv4Span2(a, ta, tb []uint64, q, twoQ uint64) {
	if useAVX512 && len(a) >= 16 {
		inv4Span2Vec(a, ta, tb, q, twoQ)
		return
	}
	for len(a) >= 8 && len(ta) >= 4 && len(tb) >= 2 {
		x, wa, wb := a[:8:8], ta[:4:4], tb[:2:2]
		for k := 0; k < 2; k++ {
			a0, a1 := gs(x[k], x[k+2], wa[0], wa[1], q, twoQ)
			a2, a3 := gs(x[k+4], x[k+6], wa[2], wa[3], q, twoQ)
			x[k], x[k+4] = gs(a0, a2, wb[0], wb[1], q, twoQ)
			x[k+2], x[k+6] = gs(a1, a3, wb[0], wb[1], q, twoQ)
		}
		a, ta, tb = a[8:], ta[4:], tb[2:]
	}
}

// inv2 is one inverse radix-2 group over two equal spans.
func inv2(x, y []uint64, w, ws, q, twoQ uint64) {
	if useAVX512 && len(x) >= 8 {
		inv2Vec(x, y, w, ws, q, twoQ)
		return
	}
	y = y[:len(x)]
	for k := range x {
		x[k], y[k] = gs(x[k], y[k], w, ws, q, twoQ)
	}
}

// invLastScaled finishes an inverse transform with caller-supplied
// last-stage scalar pairs: the x half multiplies by wx, the y half by wy,
// both Shoup-prepared. With (wx, wy) = (N⁻¹·s, w_last·s) — see
// ScaledLastPair — the output is INTT(input)·s, folding a pointwise scalar
// multiply into the transform for free. Inputs must be < 2q; outputs are
// canonical.
func (t *Table) invLastScaled(a []uint64, wx, wxs, wy, wys uint64) {
	q, twoQ := t.Q, t.twoQ
	half := t.N >> 1
	x, y := a[:half:half], a[half:t.N:t.N]
	y = y[:len(x)]
	if useAVX512 && len(x) >= 8 {
		invLastVec(x, y, wx, wxs, wy, wys, q, twoQ)
		return
	}
	for k := range x {
		u, v := x[k], y[k]
		x[k] = rns.ReduceOnce(rns.MulModShoupLazy(u+v, wx, wxs, q), q)
		y[k] = rns.ReduceOnce(rns.MulModShoupLazy(u+twoQ-v, wy, wys, q), q)
	}
}

// ScaledLastPair returns the Shoup-prepared last-stage scalar pair that
// makes invLastScaled compute INTT(·)·s: (N⁻¹·s, w_last·s) and their Shoup
// companions. Intended for plan compile time (keyswitch digit decompose:
// s = (Q/q_j)⁻¹ mod q_j folds the base-conversion z-stage into the
// transform).
func (t *Table) ScaledLastPair(s uint64) (wx, wxs, wy, wys uint64) {
	q := t.Q
	wx = rns.MulMod(t.nInv, s, q)
	wy = rns.MulMod(t.wLast, s, q)
	return wx, rns.ShoupPrecomp(wx, q), wy, rns.ShoupPrecomp(wy, q)
}

// InverseScaledFrom computes dst = INTT(src)·s in one fused pass, with
// (wx, wy) from ScaledLastPair(s): the input copy folds into the first
// stage's loads and the scalar multiply into the last stage's twiddles.
// src (canonical NTT-domain) is unchanged; dst is canonical and must not
// alias src. Bit-identical to copy + Inverse + pointwise MulModShoup by s.
func (t *Table) InverseScaledFrom(src, dst []uint64, wx, wxs, wy, wys uint64) {
	if t.N < 4 {
		copy(dst, src)
	} else {
		t.inverseMainFrom(dst, src)
	}
	t.invLastScaled(dst, wx, wxs, wy, wys)
}

// invLast finishes an inverse transform: both outputs pick up N⁻¹ and one
// conditional subtraction returns them to [0, q). Inputs must be < 2q.
func (t *Table) invLast(a []uint64) {
	t.invLastScaled(a, t.nInv, t.nInvShoup, t.wLast, t.wLastShoup)
}

// LazyMulAccWeight is the overflow-budget weight of one ForwardMulAccPair
// product in canonical-product units (rns.MaxLazyAdds): the fused last
// stage accumulates lazy (< 4q) transform values, so each product is at
// most 4q·q instead of q².
const LazyMulAccWeight = 4

// ForwardMulAccPair accumulates NTT(a) ⊙ b0 into the 128-bit accumulator
// (h0, l0) and NTT(a) ⊙ b1 into (h1, l1) in one fused pass — the per-digit
// kernel of the hybrid keyswitch inner product. a is consumed. The left
// factors are lazy (< 4q) transform values: the accumulated residues are
// congruent to the canonical products mod q, and the caller's final wide
// Barrett reduction yields bit-identical canonical results. The caller owns
// the accumulator overflow budget at LazyMulAccWeight canonical-product
// units per cell per call (see rns.MaxLazyAdds).
func (t *Table) ForwardMulAccPair(a, b0, b1, h0, l0, h1, l1 []uint64) {
	t.forwardMain(a)
	t.fwdLastMulAccPair(a, b0, b1, h0, l0, h1, l1)
}
