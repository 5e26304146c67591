//go:build !amd64

package ntt

// hasAVX512 and useAVX512 are always off here: only amd64 has vector
// bodies, and the Go loops run every pass.
const hasAVX512 = false

var useAVX512 = false

const noVector = "ntt: no vector kernels on this architecture"

func fwd2Vec(x, y []uint64, w, ws, q, twoQ uint64)                    { panic(noVector) }
func fwd4Vec(a, t1, t2 []uint64, h int, q, twoQ uint64)               { panic(noVector) }
func fwd4Span2Vec(a, t1, t2 []uint64, q, twoQ uint64)                 { panic(noVector) }
func fwdLastVec(a, w []uint64, q, twoQ uint64)                        { panic(noVector) }
func fwdLastSubMulVec(a, w, src, out []uint64, s, ss, q, twoQ uint64) { panic(noVector) }
func invFirstVec(a, src, w []uint64, q, twoQ uint64)                  { panic(noVector) }
func inv4Vec(a, ta, tb []uint64, step int, q, twoQ uint64)            { panic(noVector) }
func inv4Span2Vec(a, ta, tb []uint64, q, twoQ uint64)                 { panic(noVector) }
func inv2Vec(x, y []uint64, w, ws, q, twoQ uint64)                    { panic(noVector) }
func invLastVec(x, y []uint64, wx, wxs, wy, wys, q, twoQ uint64)      { panic(noVector) }
func mulAccWideVec(hi, lo, x, y []uint64)                             { panic(noVector) }
func reduceWideVec(out, hi, lo []uint64, q, bhi, blo uint64)          { panic(noVector) }
func mulAccWideScalarVec(hi, lo, x []uint64, w uint64)                { panic(noVector) }
func mulBarrettVec(out, a, b []uint64, q, bhi, blo uint64)            { panic(noVector) }
func mulShoupVec(out, x []uint64, w, ws, q uint64)                    { panic(noVector) }
func addModVec(out, a, b []uint64, q uint64)                          { panic(noVector) }
func subModVec(out, a, b []uint64, q uint64)                          { panic(noVector) }
func convAccVec(acc []uint64, z [][]uint64, f, fs []uint64, p uint64) { panic(noVector) }

func fwdLastMulAccPairVec(a, w, b0, b1, h0, l0, h1, l1 []uint64, q, twoQ uint64) {
	panic(noVector)
}
