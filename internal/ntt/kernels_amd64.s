//go:build amd64

#include "textflag.h"

// AVX-512 F/DQ bodies of the NTT passes in fused.go and of the lane
// kernels in lanes.go. Each computes, lane for lane, the integer function
// of its Go loop (DESIGN.md §10, "Vector bodies"). Register conventions,
// shared by every kernel:
//
//	Z29 = 2q, Z30 = q, Z31 = 0x00000000ffffffff in every lane
//	Z14..Z18 are the butterfly macros' scratch
//	Z27 = 1 in every lane where a 128-bit carry is added
//
// Every kernel is a leaf: NOSPLIT, no frame, no retained pointer, and it
// ends with VZEROUPPER. The Go wrappers in kernels_amd64.go re-slice every
// operand to the exact length the kernel walks.

// LANECONSTS broadcasts q (AX) and 2q (BX) and builds the 32-bit mask.
#define LANECONSTS \
	VPBROADCASTQ AX, Z30; \
	VPBROADCASTQ BX, Z29; \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, Z31

// MULHI sets out = hi64(x·s) from the 32-bit halves: with x = xh:xl and
// s = sh:sl (sl in the low half of wl, sh = s>>32 in wh),
//	mid = xl·sh + (xl·sl)>>32
//	hi  = xh·sh + mid>>32 + (xh·sl + mid&M32)>>32
// No partial sum overflows 64 bits. out must not alias x; x is kept.
#define MULHI(x, wl, wh, out) \
	VPSRLQ   $32, x, Z16; \
	VPMULUDQ wl, x, Z17; \
	VPMULUDQ wh, x, out; \
	VPSRLQ   $32, Z17, Z17; \
	VPADDQ   Z17, out, out; \
	VPMULUDQ wl, Z16, Z17; \
	VPMULUDQ wh, Z16, Z16; \
	VPANDQ   Z31, out, Z18; \
	VPSRLQ   $32, out, out; \
	VPADDQ   Z18, Z17, Z17; \
	VPSRLQ   $32, Z17, Z17; \
	VPADDQ   Z16, out, out; \
	VPADDQ   Z17, out, out

// SHOUPLAZY sets out = x·w − hi64(x·ws)·q mod 2^64 (rns.MulModShoupLazy),
// with ws in wl and ws>>32 in wh. out must not alias x; x is kept.
#define SHOUPLAZY(x, w, wl, wh, out) \
	MULHI(x, wl, wh, out); \
	VPMULLQ w, x, Z16; \
	VPMULLQ Z30, out, out; \
	VPSUBQ  out, Z16, out

// CT is the lazy Cooley-Tukey butterfly ct: u = Reduce2Q(x) as
// min(x, x−2q), which is exact for every uint64 because x−2q wraps above x
// exactly when x < 2q; v = SHOUPLAZY(y); x, y = u+v, u+2q−v.
#define CT(x, y, w, wl, wh) \
	VPSUBQ  Z29, x, Z14; \
	VPMINUQ Z14, x, x; \
	CT1(x, y, w, wl, wh)

// CT1 is CT without the Reduce2Q: the forward first stage on canonical
// input.
#define CT1(x, y, w, wl, wh) \
	SHOUPLAZY(y, w, wl, wh, Z15); \
	VPADDQ Z29, x, y; \
	VPSUBQ Z15, y, y; \
	VPADDQ Z15, x, x

// GS is the lazy Gentleman-Sande butterfly gs: x, y = AddModLazy(x, y) as
// min(s, s−2q) with s = x+y, and SHOUPLAZY(x+2q−y).
#define GS(x, y, w, wl, wh) \
	VPADDQ  y, x, Z14; \
	VPADDQ  Z29, x, Z15; \
	VPSUBQ  y, Z15, Z15; \
	VPSUBQ  Z29, Z14, x; \
	VPMINUQ Z14, x, x; \
	SHOUPLAZY(Z15, w, wl, wh, y)

// REDUCE sets x = min(x, x−c): the conditional subtraction of c.
#define REDUCE(c, x) \
	VPSUBQ  c, x, Z14; \
	VPMINUQ Z14, x, x

// BCASTW broadcasts the twiddle pair at off(p) as w, ws and ws>>32.
#define BCASTW(p, off, w, wl, wh) \
	VPBROADCASTQ off(p), w; \
	VPBROADCASTQ off+8(p), wl; \
	VPSRLQ       $32, wl, wh

// Lane indices for the width-2 passes. A twiddle block of two groups is
// spread over the lanes of its butterflies by VPERMQ; lohalf/hihalf
// interleave the 128-bit blocks of two registers by VPERMT2Q.
DATA grp4<>+0(SB)/8, $0
DATA grp4<>+8(SB)/8, $0
DATA grp4<>+16(SB)/8, $0
DATA grp4<>+24(SB)/8, $0
DATA grp4<>+32(SB)/8, $2
DATA grp4<>+40(SB)/8, $2
DATA grp4<>+48(SB)/8, $2
DATA grp4<>+56(SB)/8, $2
GLOBL grp4<>(SB), RODATA|NOPTR, $64

DATA grp4s<>+0(SB)/8, $1
DATA grp4s<>+8(SB)/8, $1
DATA grp4s<>+16(SB)/8, $1
DATA grp4s<>+24(SB)/8, $1
DATA grp4s<>+32(SB)/8, $3
DATA grp4s<>+40(SB)/8, $3
DATA grp4s<>+48(SB)/8, $3
DATA grp4s<>+56(SB)/8, $3
GLOBL grp4s<>(SB), RODATA|NOPTR, $64

DATA fwdw2<>+0(SB)/8, $0
DATA fwdw2<>+8(SB)/8, $0
DATA fwdw2<>+16(SB)/8, $4
DATA fwdw2<>+24(SB)/8, $4
DATA fwdw2<>+32(SB)/8, $2
DATA fwdw2<>+40(SB)/8, $2
DATA fwdw2<>+48(SB)/8, $6
DATA fwdw2<>+56(SB)/8, $6
GLOBL fwdw2<>(SB), RODATA|NOPTR, $64

DATA fwdw2s<>+0(SB)/8, $1
DATA fwdw2s<>+8(SB)/8, $1
DATA fwdw2s<>+16(SB)/8, $5
DATA fwdw2s<>+24(SB)/8, $5
DATA fwdw2s<>+32(SB)/8, $3
DATA fwdw2s<>+40(SB)/8, $3
DATA fwdw2s<>+48(SB)/8, $7
DATA fwdw2s<>+56(SB)/8, $7
GLOBL fwdw2s<>(SB), RODATA|NOPTR, $64

DATA invwa<>+0(SB)/8, $0
DATA invwa<>+8(SB)/8, $0
DATA invwa<>+16(SB)/8, $2
DATA invwa<>+24(SB)/8, $2
DATA invwa<>+32(SB)/8, $4
DATA invwa<>+40(SB)/8, $4
DATA invwa<>+48(SB)/8, $6
DATA invwa<>+56(SB)/8, $6
GLOBL invwa<>(SB), RODATA|NOPTR, $64

DATA invwas<>+0(SB)/8, $1
DATA invwas<>+8(SB)/8, $1
DATA invwas<>+16(SB)/8, $3
DATA invwas<>+24(SB)/8, $3
DATA invwas<>+32(SB)/8, $5
DATA invwas<>+40(SB)/8, $5
DATA invwas<>+48(SB)/8, $7
DATA invwas<>+56(SB)/8, $7
GLOBL invwas<>(SB), RODATA|NOPTR, $64

DATA lohalf<>+0(SB)/8, $0
DATA lohalf<>+8(SB)/8, $1
DATA lohalf<>+16(SB)/8, $8
DATA lohalf<>+24(SB)/8, $9
DATA lohalf<>+32(SB)/8, $4
DATA lohalf<>+40(SB)/8, $5
DATA lohalf<>+48(SB)/8, $12
DATA lohalf<>+56(SB)/8, $13
GLOBL lohalf<>(SB), RODATA|NOPTR, $64

DATA hihalf<>+0(SB)/8, $2
DATA hihalf<>+8(SB)/8, $3
DATA hihalf<>+16(SB)/8, $10
DATA hihalf<>+24(SB)/8, $11
DATA hihalf<>+32(SB)/8, $6
DATA hihalf<>+40(SB)/8, $7
DATA hihalf<>+48(SB)/8, $14
DATA hihalf<>+56(SB)/8, $15
GLOBL hihalf<>(SB), RODATA|NOPTR, $64

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fwd2AVX512(x, y []uint64, w, ws, q, twoQ uint64)
TEXT ·fwd2AVX512(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ y_base+24(FP), SI
	MOVQ q+64(FP), AX
	MOVQ twoQ+72(FP), BX
	LANECONSTS
	MOVQ w+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ ws+56(FP), AX
	VPBROADCASTQ AX, Z1
	VPSRLQ $32, Z1, Z2

fwd2loop:
	VMOVDQU64 (DI), Z10
	VMOVDQU64 (SI), Z11
	CT1(Z10, Z11, Z0, Z1, Z2)
	VMOVDQU64 Z10, (DI)
	VMOVDQU64 Z11, (SI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  fwd2loop
	VZEROUPPER
	RET

// func fwd4AVX512(a, t1, t2 []uint64, h int, q, twoQ uint64)
TEXT ·fwd4AVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ t1_base+24(FP), SI
	MOVQ t1_len+32(FP), CX
	SHRQ $1, CX
	MOVQ t2_base+48(FP), R8
	MOVQ h+72(FP), DX
	SHLQ $3, DX
	MOVQ q+80(FP), AX
	MOVQ twoQ+88(FP), BX
	LANECONSTS

fwd4group:
	BCASTW(SI, 0, Z0, Z1, Z2)
	BCASTW(R8, 0, Z3, Z4, Z5)
	BCASTW(R8, 16, Z6, Z7, Z8)
	LEAQ (DI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	XORQ BX, BX

fwd4loop:
	VMOVDQU64 (DI)(BX*1), Z10
	VMOVDQU64 (R9)(BX*1), Z11
	VMOVDQU64 (R10)(BX*1), Z12
	VMOVDQU64 (R11)(BX*1), Z13
	CT(Z10, Z12, Z0, Z1, Z2)
	CT(Z11, Z13, Z0, Z1, Z2)
	CT(Z10, Z11, Z3, Z4, Z5)
	CT(Z12, Z13, Z6, Z7, Z8)
	VMOVDQU64 Z10, (DI)(BX*1)
	VMOVDQU64 Z11, (R9)(BX*1)
	VMOVDQU64 Z12, (R10)(BX*1)
	VMOVDQU64 Z13, (R11)(BX*1)
	ADDQ $64, BX
	CMPQ BX, DX
	JB   fwd4loop
	LEAQ (R11)(DX*1), DI
	ADDQ $16, SI
	ADDQ $32, R8
	DECQ CX
	JNZ  fwd4group
	VZEROUPPER
	RET

// func fwd4Span2AVX512(a, t1, t2 []uint64, q, twoQ uint64)
//
// Two 8-coefficient groups per iteration. X gathers the quarters x0, x1
// and Y the quarters x2, x3 of both groups, so the first stage pairs lane
// with lane; the second stage regroups the 128-bit blocks so that
// (x0, x1) and (x2, x3) face each other, and the stores interleave them
// back.
TEXT ·fwd4Span2AVX512(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	MOVQ t1_base+24(FP), SI
	MOVQ t2_base+48(FP), R8
	MOVQ q+72(FP), AX
	MOVQ twoQ+80(FP), BX
	LANECONSTS
	VMOVDQU64 grp4<>(SB), Z20
	VMOVDQU64 grp4s<>(SB), Z21
	VMOVDQU64 fwdw2<>(SB), Z22
	VMOVDQU64 fwdw2s<>(SB), Z23
	VMOVDQU64 lohalf<>(SB), Z24
	VMOVDQU64 hihalf<>(SB), Z25

fwd4s2loop:
	VBROADCASTI64X4 (SI), Z9
	VPERMQ          Z9, Z20, Z0
	VPERMQ          Z9, Z21, Z1
	VPSRLQ          $32, Z1, Z2
	VMOVDQU64       (R8), Z9
	VPERMQ          Z9, Z22, Z3
	VPERMQ          Z9, Z23, Z4
	VPSRLQ          $32, Z4, Z5
	VMOVDQU64       (DI), Z10
	VMOVDQU64       64(DI), Z11
	VSHUFI64X2      $0x44, Z11, Z10, Z12
	VSHUFI64X2      $0xee, Z11, Z10, Z13
	CT(Z12, Z13, Z0, Z1, Z2)
	VSHUFI64X2      $0x88, Z13, Z12, Z10
	VSHUFI64X2      $0xdd, Z13, Z12, Z11
	CT(Z10, Z11, Z3, Z4, Z5)
	VMOVDQA64       Z10, Z12
	VPERMT2Q        Z11, Z24, Z12
	VPERMT2Q        Z11, Z25, Z10
	VMOVDQU64       Z12, (DI)
	VMOVDQU64       Z10, 64(DI)
	ADDQ            $128, DI
	ADDQ            $32, SI
	ADDQ            $64, R8
	DECQ            CX
	JNZ             fwd4s2loop
	VZEROUPPER
	RET

// SPAN1TW loads the 8 interleaved twiddle pairs at tw for a span-1 stage
// and splits them as the coefficients are split: Z3 the twiddles, Z4 their
// Shoup companions, Z5 = Z4>>32. VPUNPCKL/HQDQ of the coefficient vectors
// A, B give the even and odd operands in lane order (A0, B0, A2, B2, ...),
// and the same split of the twiddle vectors puts each butterfly's pair in
// its lane.
#define SPAN1TW(tw) \
	VMOVDQU64   (tw), Z12; \
	VMOVDQU64   64(tw), Z13; \
	VPUNPCKLQDQ Z13, Z12, Z3; \
	VPUNPCKHQDQ Z13, Z12, Z4; \
	VPSRLQ      $32, Z4, Z5

// func fwdLastAVX512(a, w []uint64, q, twoQ uint64)
TEXT ·fwdLastAVX512(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	MOVQ w_base+24(FP), R9
	MOVQ q+48(FP), AX
	MOVQ twoQ+56(FP), BX
	LANECONSTS

fwdlastloop:
	VMOVDQU64   (DI), Z10
	VMOVDQU64   64(DI), Z11
	VPUNPCKLQDQ Z11, Z10, Z0
	VPUNPCKHQDQ Z11, Z10, Z1
	SPAN1TW(R9)
	CT(Z0, Z1, Z3, Z4, Z5)
	VPUNPCKLQDQ Z1, Z0, Z10
	VPUNPCKHQDQ Z1, Z0, Z11
	REDUCE(Z29, Z10)
	REDUCE(Z30, Z10)
	REDUCE(Z29, Z11)
	REDUCE(Z30, Z11)
	VMOVDQU64   Z10, (DI)
	VMOVDQU64   Z11, 64(DI)
	ADDQ        $128, DI
	ADDQ        $128, R9
	DECQ        CX
	JNZ         fwdlastloop
	VZEROUPPER
	RET

// func fwdLastSubMulAVX512(a, w, src, out []uint64, s, ss, q, twoQ uint64)
TEXT ·fwdLastSubMulAVX512(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	MOVQ w_base+24(FP), R9
	MOVQ src_base+48(FP), SI
	MOVQ out_base+72(FP), R8
	MOVQ q+112(FP), AX
	MOVQ twoQ+120(FP), BX
	LANECONSTS
	VPADDQ Z29, Z29, Z28
	MOVQ s+96(FP), AX
	VPBROADCASTQ AX, Z6
	MOVQ ss+104(FP), AX
	VPBROADCASTQ AX, Z7
	VPSRLQ $32, Z7, Z8

fwdsubloop:
	VMOVDQU64   (DI), Z10
	VMOVDQU64   64(DI), Z11
	VPUNPCKLQDQ Z11, Z10, Z0
	VPUNPCKHQDQ Z11, Z10, Z1
	SPAN1TW(R9)
	CT(Z0, Z1, Z3, Z4, Z5)
	VPUNPCKLQDQ Z1, Z0, Z10
	VPUNPCKHQDQ Z1, Z0, Z11
	VMOVDQU64   (SI), Z12
	VMOVDQU64   64(SI), Z13
	VPADDQ      Z28, Z12, Z12
	VPSUBQ      Z10, Z12, Z12
	VPADDQ      Z28, Z13, Z13
	VPSUBQ      Z11, Z13, Z13
	SHOUPLAZY(Z12, Z6, Z7, Z8, Z10)
	SHOUPLAZY(Z13, Z6, Z7, Z8, Z11)
	REDUCE(Z30, Z10)
	REDUCE(Z30, Z11)
	VMOVDQU64   Z10, (R8)
	VMOVDQU64   Z11, 64(R8)
	ADDQ        $128, DI
	ADDQ        $128, R9
	ADDQ        $128, SI
	ADDQ        $128, R8
	DECQ        CX
	JNZ         fwdsubloop
	VZEROUPPER
	RET

// MULACC adds the 128-bit product x·b into the accumulator (h, l) at
// off(p)(BX*1) for p = bp, hp, lp (rns.MulAccLazy): lo = x·b mod 2^64
// (VPMULLQ), hi = MULHI(x, b), l' = l + lo, and h' = h + hi + (l' < lo).
// Z27 holds 1 in every lane.
#define MULACC(x, off, bp, hp, lp) \
	VMOVDQU64 off(bp)(BX*1), Z20; \
	VPSRLQ    $32, Z20, Z21; \
	MULHI(x, Z20, Z21, Z22); \
	VPMULLQ   Z20, x, Z20; \
	VMOVDQU64 off(lp)(BX*1), Z24; \
	VPADDQ    Z20, Z24, Z24; \
	VPCMPUQ   $1, Z20, Z24, K1; \
	VMOVDQU64 off(hp)(BX*1), Z25; \
	VPADDQ    Z22, Z25, Z25; \
	VPADDQ    Z27, Z25, K1, Z25; \
	VMOVDQU64 Z24, off(lp)(BX*1); \
	VMOVDQU64 Z25, off(hp)(BX*1)

// func fwdLastMulAccPairAVX512(a, w, b0, b1, h0, l0, h1, l1 []uint64, q, twoQ uint64)
//
// fwdLastAVX512's split, butterflies and interleave, then each of the 16
// transform values is multiply-accumulated into (h0, l0) by b0 and into
// (h1, l1) by b1. One index (BX) walks every operand.
TEXT ·fwdLastMulAccPairAVX512(SB), NOSPLIT, $0-208
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	MOVQ w_base+24(FP), R9
	MOVQ b0_base+48(FP), R10
	MOVQ b1_base+72(FP), R11
	MOVQ h0_base+96(FP), R12
	MOVQ l0_base+120(FP), R13
	MOVQ h1_base+144(FP), SI
	MOVQ l1_base+168(FP), R8
	MOVQ q+192(FP), AX
	MOVQ twoQ+200(FP), BX
	LANECONSTS
	MOVQ $1, AX
	VPBROADCASTQ AX, Z27
	XORQ BX, BX

fwdmaccloop:
	VMOVDQU64   (DI)(BX*1), Z10
	VMOVDQU64   64(DI)(BX*1), Z11
	VPUNPCKLQDQ Z11, Z10, Z0
	VPUNPCKHQDQ Z11, Z10, Z1
	VMOVDQU64   (R9)(BX*1), Z12
	VMOVDQU64   64(R9)(BX*1), Z13
	VPUNPCKLQDQ Z13, Z12, Z3
	VPUNPCKHQDQ Z13, Z12, Z4
	VPSRLQ      $32, Z4, Z5
	CT(Z0, Z1, Z3, Z4, Z5)
	VPUNPCKLQDQ Z1, Z0, Z10
	VPUNPCKHQDQ Z1, Z0, Z11
	MULACC(Z10, 0, R10, R12, R13)
	MULACC(Z10, 0, R11, SI, R8)
	MULACC(Z11, 64, R10, R12, R13)
	MULACC(Z11, 64, R11, SI, R8)
	ADDQ        $128, BX
	DECQ        CX
	JNZ         fwdmaccloop
	VZEROUPPER
	RET

// INVFIRST is one iteration of the inverse span-1 first stage over the
// coefficients already loaded in Z10, Z11: split, GS, interleave, store.
#define INVFIRST \
	VPUNPCKLQDQ Z11, Z10, Z0; \
	VPUNPCKHQDQ Z11, Z10, Z1; \
	SPAN1TW(R9); \
	GS(Z0, Z1, Z3, Z4, Z5); \
	VPUNPCKLQDQ Z1, Z0, Z10; \
	VPUNPCKHQDQ Z1, Z0, Z11; \
	VMOVDQU64   Z10, (DI); \
	VMOVDQU64   Z11, 64(DI); \
	ADDQ        $128, DI; \
	ADDQ        $128, SI; \
	ADDQ        $128, R9

// func invFirstAVX512(a, src, w []uint64, q, twoQ uint64)
//
// src may be a itself.
TEXT ·invFirstAVX512(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	MOVQ src_base+24(FP), SI
	MOVQ w_base+48(FP), R9
	MOVQ q+72(FP), AX
	MOVQ twoQ+80(FP), BX
	LANECONSTS

invfirstloop:
	VMOVDQU64 (SI), Z10
	VMOVDQU64 64(SI), Z11
	INVFIRST
	DECQ      CX
	JNZ       invfirstloop
	VZEROUPPER
	RET

// func inv4AVX512(a, ta, tb []uint64, step int, q, twoQ uint64)
TEXT ·inv4AVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ ta_base+24(FP), SI
	MOVQ tb_base+48(FP), R8
	MOVQ tb_len+56(FP), CX
	SHRQ $1, CX
	MOVQ step+72(FP), DX
	SHLQ $3, DX
	MOVQ q+80(FP), AX
	MOVQ twoQ+88(FP), BX
	LANECONSTS

inv4group:
	BCASTW(SI, 0, Z0, Z1, Z2)
	BCASTW(SI, 16, Z3, Z4, Z5)
	BCASTW(R8, 0, Z6, Z7, Z8)
	LEAQ (DI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	XORQ BX, BX

inv4loop:
	VMOVDQU64 (DI)(BX*1), Z10
	VMOVDQU64 (R9)(BX*1), Z11
	VMOVDQU64 (R10)(BX*1), Z12
	VMOVDQU64 (R11)(BX*1), Z13
	GS(Z10, Z11, Z0, Z1, Z2)
	GS(Z12, Z13, Z3, Z4, Z5)
	GS(Z10, Z12, Z6, Z7, Z8)
	GS(Z11, Z13, Z6, Z7, Z8)
	VMOVDQU64 Z10, (DI)(BX*1)
	VMOVDQU64 Z11, (R9)(BX*1)
	VMOVDQU64 Z12, (R10)(BX*1)
	VMOVDQU64 Z13, (R11)(BX*1)
	ADDQ $64, BX
	CMPQ BX, DX
	JB   inv4loop
	LEAQ (R11)(DX*1), DI
	ADDQ $32, SI
	ADDQ $16, R8
	DECQ CX
	JNZ  inv4group
	VZEROUPPER
	RET

// func inv4Span2AVX512(a, ta, tb []uint64, q, twoQ uint64)
//
// The mirror of fwd4Span2AVX512: X gathers the quarters x0, x2 and Y the
// quarters x1, x3 of two groups for the first stage; the second regroups
// the blocks so that (x0, x2) and (x1, x3) face each other.
TEXT ·inv4Span2AVX512(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $4, CX
	MOVQ ta_base+24(FP), SI
	MOVQ tb_base+48(FP), R8
	MOVQ q+72(FP), AX
	MOVQ twoQ+80(FP), BX
	LANECONSTS
	VMOVDQU64 invwa<>(SB), Z20
	VMOVDQU64 invwas<>(SB), Z21
	VMOVDQU64 grp4<>(SB), Z22
	VMOVDQU64 grp4s<>(SB), Z23
	VMOVDQU64 lohalf<>(SB), Z24
	VMOVDQU64 hihalf<>(SB), Z25

inv4s2loop:
	VMOVDQU64       (SI), Z9
	VPERMQ          Z9, Z20, Z0
	VPERMQ          Z9, Z21, Z1
	VPSRLQ          $32, Z1, Z2
	VBROADCASTI64X4 (R8), Z9
	VPERMQ          Z9, Z22, Z3
	VPERMQ          Z9, Z23, Z4
	VPSRLQ          $32, Z4, Z5
	VMOVDQU64       (DI), Z10
	VMOVDQU64       64(DI), Z11
	VSHUFI64X2      $0x88, Z11, Z10, Z12
	VSHUFI64X2      $0xdd, Z11, Z10, Z13
	GS(Z12, Z13, Z0, Z1, Z2)
	VMOVDQA64       Z12, Z10
	VPERMT2Q        Z13, Z24, Z10
	VPERMT2Q        Z13, Z25, Z12
	GS(Z10, Z12, Z3, Z4, Z5)
	VSHUFI64X2      $0x44, Z12, Z10, Z11
	VSHUFI64X2      $0xee, Z12, Z10, Z13
	VMOVDQU64       Z11, (DI)
	VMOVDQU64       Z13, 64(DI)
	ADDQ            $128, DI
	ADDQ            $64, SI
	ADDQ            $32, R8
	DECQ            CX
	JNZ             inv4s2loop
	VZEROUPPER
	RET

// func inv2AVX512(x, y []uint64, w, ws, q, twoQ uint64)
TEXT ·inv2AVX512(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ y_base+24(FP), SI
	MOVQ q+64(FP), AX
	MOVQ twoQ+72(FP), BX
	LANECONSTS
	MOVQ w+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ ws+56(FP), AX
	VPBROADCASTQ AX, Z1
	VPSRLQ $32, Z1, Z2

inv2loop:
	VMOVDQU64 (DI), Z10
	VMOVDQU64 (SI), Z11
	GS(Z10, Z11, Z0, Z1, Z2)
	VMOVDQU64 Z10, (DI)
	VMOVDQU64 Z11, (SI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  inv2loop
	VZEROUPPER
	RET

// func invLastAVX512(x, y []uint64, wx, wxs, wy, wys, q, twoQ uint64)
TEXT ·invLastAVX512(SB), NOSPLIT, $0-96
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ y_base+24(FP), SI
	MOVQ q+80(FP), AX
	MOVQ twoQ+88(FP), BX
	LANECONSTS
	MOVQ wx+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ wxs+56(FP), AX
	VPBROADCASTQ AX, Z1
	VPSRLQ $32, Z1, Z2
	MOVQ wy+64(FP), AX
	VPBROADCASTQ AX, Z3
	MOVQ wys+72(FP), AX
	VPBROADCASTQ AX, Z4
	VPSRLQ $32, Z4, Z5

invlastloop:
	VMOVDQU64 (DI), Z10
	VMOVDQU64 (SI), Z11
	VPADDQ    Z11, Z10, Z12
	VPADDQ    Z29, Z10, Z13
	VPSUBQ    Z11, Z13, Z13
	SHOUPLAZY(Z12, Z0, Z1, Z2, Z10)
	SHOUPLAZY(Z13, Z3, Z4, Z5, Z11)
	REDUCE(Z30, Z10)
	REDUCE(Z30, Z11)
	VMOVDQU64 Z10, (DI)
	VMOVDQU64 Z11, (SI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  invlastloop
	VZEROUPPER
	RET

// func mulAccWideAVX512(hi, lo, x, y []uint64)
TEXT ·mulAccWideAVX512(SB), NOSPLIT, $0-96
	MOVQ hi_base+0(FP), R12
	MOVQ lo_base+24(FP), R13
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	SHRQ $3, CX
	MOVQ y_base+72(FP), R10
	MOVQ $0xffffffff, AX
	VPBROADCASTQ AX, Z31
	MOVQ $1, AX
	VPBROADCASTQ AX, Z27
	XORQ BX, BX

mulaccloop:
	VMOVDQU64 (DI)(BX*1), Z10
	MULACC(Z10, 0, R10, R12, R13)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       mulaccloop
	VZEROUPPER
	RET

// BARRETTWIDE sets Z23 to rns.BarrettReduce of the 128-bit lanes
// (hi Z10, lo Z11) with (bhi, blo) = floor(2^128/q) split as Z2, Z3 (bhi,
// bhi>>32) and Z0, Z1 (blo, blo>>32): t0 = hi64(lo·blo), t1 = hi·blo and
// t2 = lo·bhi as 128-bit products, m = hi·bhi + t1.hi + t2.hi + the two
// carries of t1.lo + t2.lo + t0, r = lo − m·q, then two conditional
// subtractions of q. Z30 = q, Z27 = 1, Z31 = the 32-bit mask.
#define BARRETTWIDE \
	MULHI(Z11, Z0, Z1, Z12); \
	MULHI(Z10, Z0, Z1, Z13); \
	VPMULLQ   Z0, Z10, Z14; \
	MULHI(Z11, Z2, Z3, Z15); \
	VPMULLQ   Z2, Z11, Z19; \
	VPADDQ    Z19, Z14, Z20; \
	VPCMPUQ   $1, Z14, Z20, K1; \
	VPADDQ    Z12, Z20, Z21; \
	VPCMPUQ   $1, Z20, Z21, K2; \
	VPMULLQ   Z2, Z10, Z22; \
	VPADDQ    Z13, Z22, Z22; \
	VPADDQ    Z15, Z22, Z22; \
	VPADDQ    Z27, Z22, K1, Z22; \
	VPADDQ    Z27, Z22, K2, Z22; \
	VPMULLQ   Z30, Z22, Z22; \
	VPSUBQ    Z22, Z11, Z23; \
	REDUCE(Z30, Z23); \
	REDUCE(Z30, Z23)

// BARRETTCONSTS broadcasts q (AX), the 32-bit mask, 1, and the Barrett
// constant halves bhi (R9) and blo (R11) for BARRETTWIDE.
#define BARRETTCONSTS \
	VPBROADCASTQ AX, Z30; \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, Z31; \
	MOVQ         $1, AX; \
	VPBROADCASTQ AX, Z27; \
	VPBROADCASTQ R9, Z2; \
	VPSRLQ       $32, Z2, Z3; \
	VPBROADCASTQ R11, Z0; \
	VPSRLQ       $32, Z0, Z1

// func reduceWideAVX512(out, hi, lo []uint64, q, bhi, blo uint64)
TEXT ·reduceWideAVX512(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX
	MOVQ hi_base+24(FP), SI
	MOVQ lo_base+48(FP), R8
	MOVQ q+72(FP), AX
	MOVQ bhi+80(FP), R9
	MOVQ blo+88(FP), R11
	BARRETTCONSTS
	XORQ BX, BX

reducewideloop:
	VMOVDQU64 (SI)(BX*1), Z10
	VMOVDQU64 (R8)(BX*1), Z11
	BARRETTWIDE
	VMOVDQU64 Z23, (DI)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       reducewideloop
	VZEROUPPER
	RET

// func mulBarrettAVX512(out, a, b []uint64, q, bhi, blo uint64)
//
// rns.BarrettParams.MulMod per lane: the 128-bit product a·b (hi by
// MULHI, lo by VPMULLQ) reduced by BARRETTWIDE.
TEXT ·mulBarrettAVX512(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ q+72(FP), AX
	MOVQ bhi+80(FP), R9
	MOVQ blo+88(FP), R11
	BARRETTCONSTS
	XORQ BX, BX

mulbarrettloop:
	VMOVDQU64 (SI)(BX*1), Z4
	VMOVDQU64 (R8)(BX*1), Z5
	VPSRLQ    $32, Z5, Z6
	MULHI(Z4, Z5, Z6, Z10)
	VPMULLQ   Z5, Z4, Z11
	BARRETTWIDE
	VMOVDQU64 Z23, (DI)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       mulbarrettloop
	VZEROUPPER
	RET

// func mulAccWideScalarAVX512(hi, lo, x []uint64, w uint64)
//
// mulAccWideAVX512 with the multiplier w broadcast once: lo' = lo + x·w
// mod 2^64 and hi' = hi + hi64(x·w) + (lo' < x·w mod 2^64).
TEXT ·mulAccWideScalarAVX512(SB), NOSPLIT, $0-80
	MOVQ hi_base+0(FP), R12
	MOVQ lo_base+24(FP), R13
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	SHRQ $3, CX
	MOVQ $0xffffffff, AX
	VPBROADCASTQ AX, Z31
	MOVQ $1, AX
	VPBROADCASTQ AX, Z27
	MOVQ w+72(FP), AX
	VPBROADCASTQ AX, Z20
	VPSRLQ $32, Z20, Z21
	XORQ BX, BX

mulaccscalarloop:
	VMOVDQU64 (DI)(BX*1), Z10
	MULHI(Z10, Z20, Z21, Z22)
	VPMULLQ   Z20, Z10, Z23
	VMOVDQU64 (R13)(BX*1), Z24
	VPADDQ    Z23, Z24, Z24
	VPCMPUQ   $1, Z23, Z24, K1
	VMOVDQU64 (R12)(BX*1), Z25
	VPADDQ    Z22, Z25, Z25
	VPADDQ    Z27, Z25, K1, Z25
	VMOVDQU64 Z24, (R13)(BX*1)
	VMOVDQU64 Z25, (R12)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       mulaccscalarloop
	VZEROUPPER
	RET

// func mulShoupAVX512(out, x []uint64, w, ws, q uint64)
//
// rns.MulModShoup per lane: SHOUPLAZY, then min(r, r−q), which is the
// conditional subtraction of q for every word r.
TEXT ·mulShoupAVX512(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX
	MOVQ x_base+24(FP), SI
	MOVQ q+64(FP), AX
	VPBROADCASTQ AX, Z30
	MOVQ $0xffffffff, AX
	VPBROADCASTQ AX, Z31
	MOVQ w+48(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ ws+56(FP), AX
	VPBROADCASTQ AX, Z1
	VPSRLQ $32, Z1, Z2
	XORQ BX, BX

mulshouploop:
	VMOVDQU64 (SI)(BX*1), Z10
	SHOUPLAZY(Z10, Z0, Z1, Z2, Z11)
	REDUCE(Z30, Z11)
	VMOVDQU64 Z11, (DI)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       mulshouploop
	VZEROUPPER
	RET

// func addModAVX512(out, a, b []uint64, q uint64)
//
// rns.AddMod per lane for q < 2^63 (the wrapper's gate): s = a + b cannot
// carry, and min(s, s−q) is s − q exactly when s ≥ q.
TEXT ·addModAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ q+72(FP), AX
	VPBROADCASTQ AX, Z30
	XORQ BX, BX

addmodloop:
	VMOVDQU64 (SI)(BX*1), Z10
	VMOVDQU64 (R8)(BX*1), Z11
	VPADDQ    Z11, Z10, Z10
	REDUCE(Z30, Z10)
	VMOVDQU64 Z10, (DI)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       addmodloop
	VZEROUPPER
	RET

// func subModAVX512(out, a, b []uint64, q uint64)
//
// rns.SubMod per lane: d = a − b, plus q in the lanes where a < b (the
// borrow), for every word and every q.
TEXT ·subModAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ q+72(FP), AX
	VPBROADCASTQ AX, Z30
	XORQ BX, BX

submodloop:
	VMOVDQU64 (SI)(BX*1), Z10
	VMOVDQU64 (R8)(BX*1), Z11
	VPCMPUQ   $1, Z11, Z10, K1
	VPSUBQ    Z11, Z10, Z10
	VPADDQ    Z30, Z10, K1, Z10
	VMOVDQU64 Z10, (DI)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       submodloop
	VZEROUPPER
	RET

// func convAcc2AVX512(acc, z0, z1 []uint64, f0, fs0, f1, fs1, p, twoP uint64)
//
// The base conversion's accumulate for one target p < 2^62 and a two-limb
// source, both factors in registers: s = SHOUPLAZY(z0, f0) +
// SHOUPLAZY(z1, f1) (< 4p), then min(s, s−2p) and min(s, s−p) is the
// canonical residue.
TEXT ·convAcc2AVX512(SB), NOSPLIT, $0-120
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	SHRQ $3, CX
	MOVQ z0_base+24(FP), SI
	MOVQ z1_base+48(FP), R8
	MOVQ p+104(FP), AX
	MOVQ twoP+112(FP), BX
	LANECONSTS
	MOVQ f0+72(FP), AX
	VPBROADCASTQ AX, Z0
	MOVQ fs0+80(FP), AX
	VPBROADCASTQ AX, Z1
	VPSRLQ $32, Z1, Z2
	MOVQ f1+88(FP), AX
	VPBROADCASTQ AX, Z3
	MOVQ fs1+96(FP), AX
	VPBROADCASTQ AX, Z4
	VPSRLQ $32, Z4, Z5
	XORQ BX, BX

convacc2loop:
	VMOVDQU64 (SI)(BX*1), Z10
	VMOVDQU64 (R8)(BX*1), Z11
	SHOUPLAZY(Z10, Z0, Z1, Z2, Z12)
	SHOUPLAZY(Z11, Z3, Z4, Z5, Z13)
	VPADDQ    Z13, Z12, Z12
	REDUCE(Z29, Z12)
	REDUCE(Z30, Z12)
	VMOVDQU64 Z12, (DI)(BX*1)
	ADDQ      $64, BX
	DECQ      CX
	JNZ       convacc2loop
	VZEROUPPER
	RET
