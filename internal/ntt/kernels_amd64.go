//go:build amd64

package ntt

import "fmt"

// hasAVX512 is what CPUID reports, read once, here.
var hasAVX512 = cpuHasAVX512()

// useAVX512 selects the AVX-512 pass bodies in kernels_amd64.s. It follows
// hasAVX512, except in a -race build: the race detector does not see the
// limb loads and stores the assembly makes, so there every package's -race
// run checks concurrent requests' accesses on the Go loops. Tests flip it
// to run both kernel sets on one host; nothing else writes it.
var useAVX512 = hasAVX512 && !raceEnabled

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuHasAVX512 reports whether the CPU has AVX-512 F and DQ and the OS
// saves the ZMM and opmask state across context switches. XGETBV faults
// unless CPUID reports OSXSAVE, so that bit is checked first.
func cpuHasAVX512() bool {
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE
		return false
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM0-15 upper (6), ZMM16-31 (7).
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<17) != 0 // AVX512F, AVX512DQ
}

// The assembly entry points. Each walks exactly the lengths of the slices
// it is given. Its wrapper below re-slices every operand to that length
// first, so an operand too short for the walk panics in Go, never in the
// assembly.

//go:noescape
func fwd2AVX512(x, y []uint64, w, ws, q, twoQ uint64)

//go:noescape
func fwd4AVX512(a, t1, t2 []uint64, h int, q, twoQ uint64)

//go:noescape
func fwd4Span2AVX512(a, t1, t2 []uint64, q, twoQ uint64)

//go:noescape
func fwdLastAVX512(a, w []uint64, q, twoQ uint64)

//go:noescape
func fwdLastSubMulAVX512(a, w, src, out []uint64, s, ss, q, twoQ uint64)

//go:noescape
func fwdLastMulAccPairAVX512(a, w, b0, b1, h0, l0, h1, l1 []uint64, q, twoQ uint64)

//go:noescape
func invFirstAVX512(a, src, w []uint64, q, twoQ uint64)

//go:noescape
func inv4AVX512(a, ta, tb []uint64, step int, q, twoQ uint64)

//go:noescape
func inv4Span2AVX512(a, ta, tb []uint64, q, twoQ uint64)

//go:noescape
func inv2AVX512(x, y []uint64, w, ws, q, twoQ uint64)

//go:noescape
func invLastAVX512(x, y []uint64, wx, wxs, wy, wys, q, twoQ uint64)

//go:noescape
func mulAccWideAVX512(hi, lo, x, y []uint64)

//go:noescape
func reduceWideAVX512(out, hi, lo []uint64, q, bhi, blo uint64)

//go:noescape
func mulAccWideScalarAVX512(hi, lo, x []uint64, w uint64)

//go:noescape
func mulBarrettAVX512(out, a, b []uint64, q, bhi, blo uint64)

//go:noescape
func mulShoupAVX512(out, x []uint64, w, ws, q uint64)

//go:noescape
func addModAVX512(out, a, b []uint64, q uint64)

//go:noescape
func subModAVX512(out, a, b []uint64, q uint64)

//go:noescape
func convAcc2AVX512(acc, z0, z1 []uint64, f0, fs0, f1, fs1, p, twoP uint64)

// mustVec panics unless n is a positive multiple of the kernel's step.
// Every kernel loop runs at least once, so a zero count must not reach it.
func mustVec(n, step int) {
	if n <= 0 || n%step != 0 {
		panic(fmt.Sprintf("ntt: vector pass over %d words, want a positive multiple of %d", n, step))
	}
}

// fwd2Vec is the forward lone first stage over the halves x, y.
func fwd2Vec(x, y []uint64, w, ws, q, twoQ uint64) {
	mustVec(len(x), 8)
	fwd2AVX512(x, y[:len(x)], w, ws, q, twoQ)
}

// fwd4Vec is a whole forward radix-4 pass of m = len(t1)/2 groups with
// quarter span h.
func fwd4Vec(a, t1, t2 []uint64, h int, q, twoQ uint64) {
	m := len(t1) / 2
	mustVec(m, 1)
	mustVec(h, 8)
	fwd4AVX512(a[:4*m*h], t1[:2*m], t2[:4*m], h, q, twoQ)
}

// fwd4Span2Vec is a whole forward radix-4 pass of width-2 quarter spans.
func fwd4Span2Vec(a, t1, t2 []uint64, q, twoQ uint64) {
	mustVec(len(a), 16)
	m := len(a) / 8
	fwd4Span2AVX512(a, t1[:2*m], t2[:4*m], q, twoQ)
}

// fwdLastVec is fwdLast's butterflies and canonical store.
func fwdLastVec(a, w []uint64, q, twoQ uint64) {
	mustVec(len(a), 16)
	fwdLastAVX512(a, w[:len(a)], q, twoQ)
}

// fwdLastSubMulVec is fwdLastSubMul's butterflies and combine.
func fwdLastSubMulVec(a, w, src, out []uint64, s, ss, q, twoQ uint64) {
	mustVec(len(a), 16)
	fwdLastSubMulAVX512(a, w[:len(a)], src[:len(a)], out[:len(a)], s, ss, q, twoQ)
}

// fwdLastMulAccPairVec is fwdLastMulAccPair's butterflies and the two
// 128-bit multiply-accumulates.
func fwdLastMulAccPairVec(a, w, b0, b1, h0, l0, h1, l1 []uint64, q, twoQ uint64) {
	n := len(a)
	mustVec(n, 16)
	fwdLastMulAccPairAVX512(a, w[:n], b0[:n], b1[:n], h0[:n], l0[:n], h1[:n], l1[:n], q, twoQ)
}

// invFirstVec is the inverse span-1 first stage reading src and writing a.
func invFirstVec(a, src, w []uint64, q, twoQ uint64) {
	mustVec(len(a), 16)
	invFirstAVX512(a, src[:len(a)], w[:len(a)], q, twoQ)
}

// inv4Vec is a whole inverse radix-4 pass of h = len(tb)/2 groups with
// quarter span step.
func inv4Vec(a, ta, tb []uint64, step int, q, twoQ uint64) {
	h := len(tb) / 2
	mustVec(h, 1)
	mustVec(step, 8)
	inv4AVX512(a[:4*h*step], ta[:4*h], tb[:2*h], step, q, twoQ)
}

// inv4Span2Vec is a whole inverse radix-4 pass of width-2 quarter spans.
func inv4Span2Vec(a, ta, tb []uint64, q, twoQ uint64) {
	mustVec(len(a), 16)
	h := len(a) / 8
	inv4Span2AVX512(a, ta[:4*h], tb[:2*h], q, twoQ)
}

// inv2Vec is the inverse lone radix-2 stage over the spans x, y.
func inv2Vec(x, y []uint64, w, ws, q, twoQ uint64) {
	mustVec(len(x), 8)
	inv2AVX512(x, y[:len(x)], w, ws, q, twoQ)
}

// invLastVec is invLastScaled's butterflies over the halves x, y.
func invLastVec(x, y []uint64, wx, wxs, wy, wys, q, twoQ uint64) {
	mustVec(len(x), 8)
	invLastAVX512(x, y[:len(x)], wx, wxs, wy, wys, q, twoQ)
}

// mulAccWideVec is MulAccWide's loop.
func mulAccWideVec(hi, lo, x, y []uint64) {
	n := len(x)
	mustVec(n, 8)
	mulAccWideAVX512(hi[:n], lo[:n], x, y[:n])
}

// reduceWideVec is ReduceWide's loop.
func reduceWideVec(out, hi, lo []uint64, q, bhi, blo uint64) {
	n := len(out)
	mustVec(n, 8)
	reduceWideAVX512(out, hi[:n], lo[:n], q, bhi, blo)
}

// mulAccWideScalarVec is MulAccWideScalar's loop.
func mulAccWideScalarVec(hi, lo, x []uint64, w uint64) {
	n := len(x)
	mustVec(n, 8)
	mulAccWideScalarAVX512(hi[:n], lo[:n], x, w)
}

// mulBarrettVec is MulBarrett's loop.
func mulBarrettVec(out, a, b []uint64, q, bhi, blo uint64) {
	n := len(out)
	mustVec(n, 8)
	mulBarrettAVX512(out, a[:n], b[:n], q, bhi, blo)
}

// mulShoupVec is MulShoup's loop.
func mulShoupVec(out, x []uint64, w, ws, q uint64) {
	mustVec(len(out), 8)
	mulShoupAVX512(out, x[:len(out)], w, ws, q)
}

// addModVec is AddMod's loop.
func addModVec(out, a, b []uint64, q uint64) {
	n := len(out)
	mustVec(n, 8)
	addModAVX512(out, a[:n], b[:n], q)
}

// subModVec is SubMod's loop.
func subModVec(out, a, b []uint64, q uint64) {
	n := len(out)
	mustVec(n, 8)
	subModAVX512(out, a[:n], b[:n], q)
}

// convAccVec is ConvAccumulate's in-register sum for a one- or two-limb
// source: a one-limb source is one Shoup product, a two-limb source runs
// with both factors held in registers.
func convAccVec(acc []uint64, z [][]uint64, f, fs []uint64, p uint64) {
	n := len(acc)
	mustVec(n, 8)
	switch len(z) {
	case 1:
		mulShoupAVX512(acc, z[0][:n], f[0], fs[0], p)
	case 2:
		convAcc2AVX512(acc, z[0][:n], z[1][:n], f[0], fs[0], f[1], fs[1], p, 2*p)
	default:
		panic(fmt.Sprintf("ntt: base conversion accumulate over %d source limbs, want 1 or 2", len(z)))
	}
}
