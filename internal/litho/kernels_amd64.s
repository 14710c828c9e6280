#include "textflag.h"

// AVX2 forms of the per-pixel loops of kernels.go, four float64 (or
// complex128) per iteration. Each Go operation is one instruction that
// rounds once, with Go's operand order (the first source is the operand
// the Go code generator puts first, which decides which NaN a
// two-NaN operation returns), so every lane matches the Go loop bit for
// bit. No FMA: Go does not fuse these products on amd64.

// func reduceAVX2(d []float64, f []complex128, w float64)
//
// d[i] += w·(re² + im²): the squares by VMULPD, re² and im² of four
// fields split by VUNPCKLPD/VUNPCKHPD (lanes in the order 0, 2, 1, 3,
// put back by VPERMPD), summed re² first, times w, plus d.
TEXT ·reduceAVX2(SB), NOSPLIT, $0-56
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	MOVQ         f_base+24(FP), SI
	SHRQ         $2, CX
	JZ           reduceDone
	VBROADCASTSD w+48(FP), Y15

reduceLoop:
	VMOVUPD      (SI), Y0              // re0 im0 re1 im1
	VMOVUPD      32(SI), Y1            // re2 im2 re3 im3
	VMULPD       Y0, Y0, Y0
	VMULPD       Y1, Y1, Y1
	VUNPCKLPD    Y1, Y0, Y2            // re0² re2² re1² re3²
	VUNPCKHPD    Y1, Y0, Y3            // im0² im2² im1² im3²
	VADDPD       Y3, Y2, Y2            // re² + im²
	VPERMPD      $0xd8, Y2, Y2         // lanes 0 1 2 3
	VMULPD       Y15, Y2, Y2           // (re² + im²)·w
	VADDPD       (DI), Y2, Y2          // … + d
	VMOVUPD      Y2, (DI)
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          reduceLoop
	VZEROUPPER

reduceDone:
	RET

// func adjointAVX2(e []complex128, w []float64)
//
// e = complex(w, 0)·conj(e), as Go's complex multiply computes it:
//
//	re' = w·re − 0·(−im)       first sources w, 0
//	im' = (−im)·w + re·0       first sources −im, re
//
// Per two fields A = [w, −im], B = [re, w] (VBLENDPD of the duplicated
// w and the conjugate), P = A·B, Q = [−im, re]·0 (VPERMILPD, VMULPD; a
// product with 0 has one NaN source at most, so its order is free), and
// VADDSUBPD gives P − Q in the real lanes and P + Q in the imaginary
// ones.
TEXT ·adjointAVX2(SB), NOSPLIT, $0-48
	MOVQ         e_base+0(FP), DI
	MOVQ         e_len+8(FP), CX
	MOVQ         w_base+24(FP), SI
	SHRQ         $2, CX
	JZ           adjointDone
	VMOVUPD      ·conjMask(SB), Y15
	VXORPD       Y14, Y14, Y14         // +0

adjointLoop:
	VMOVUPD      (SI), Y0              // w0 w1 w2 w3
	VPERMPD      $0x50, Y0, Y1         // w0 w0 w1 w1
	VPERMPD      $0xfa, Y0, Y2         // w2 w2 w3 w3
	VMOVUPD      (DI), Y3
	VXORPD       Y15, Y3, Y3           // re −im re −im
	VBLENDPD     $0x5, Y1, Y3, Y4      // w −im w −im
	VBLENDPD     $0xa, Y1, Y3, Y5      // re w re w
	VMULPD       Y5, Y4, Y4            // P
	VPERMILPD    $0x5, Y3, Y5          // −im re −im re
	VMULPD       Y14, Y5, Y5           // Q
	VADDSUBPD    Y5, Y4, Y4
	VMOVUPD      Y4, (DI)
	VMOVUPD      32(DI), Y3
	VXORPD       Y15, Y3, Y3
	VBLENDPD     $0x5, Y2, Y3, Y4
	VBLENDPD     $0xa, Y2, Y3, Y5
	VMULPD       Y5, Y4, Y4
	VPERMILPD    $0x5, Y3, Y5
	VMULPD       Y14, Y5, Y5
	VADDSUBPD    Y5, Y4, Y4
	VMOVUPD      Y4, 32(DI)
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          adjointLoop
	VZEROUPPER

adjointDone:
	RET

// func setAVX2(dst, src []float64)
//
// dst = src + 0, src the first source (one NaN source at most).
TEXT ·setAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	SHRQ         $2, CX
	JZ           setDone
	VXORPD       Y1, Y1, Y1            // +0

setLoop:
	VADDPD       (SI), Y1, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          setLoop
	VZEROUPPER

setDone:
	RET

// func scaleBinsAVX2(dst, src []complex128, cr, ci float64)
//
// dst = v·c with v = src, as Go's complex multiply compiles in
// scaleBinsGo:
//
//	re = v.re·c.re − c.im·v.im       first sources v.re, c.im
//	im = c.im·v.re + v.im·c.re       first sources c.im, v.im
//
// P = [v.re, c.im]·[c.re, v.re] (VBLENDPD, VUNPCKLPD), Q = [c.im, v.im]·
// [v.im, c.re] (VUNPCKHPD, VSHUFPD), and VADDSUBPD gives P − Q in the
// real lanes and P + Q in the imaginary ones.
TEXT ·scaleBinsAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	SHRQ         $1, CX
	JZ           scaleDone
	VBROADCASTSD cr+48(FP), Y14
	VBROADCASTSD ci+56(FP), Y13
	VBLENDPD     $0xa, Y13, Y14, Y14   // C = c.re c.im

scaleLoop:
	VMOVUPD      (SI), Y0              // v
	VBLENDPD     $0xa, Y14, Y0, Y2     // v.re c.im
	VUNPCKLPD    Y0, Y14, Y3           // c.re v.re
	VMULPD       Y3, Y2, Y2
	VUNPCKHPD    Y0, Y14, Y4           // c.im v.im
	VSHUFPD      $0x5, Y14, Y0, Y5     // v.im c.re
	VMULPD       Y5, Y4, Y4
	VADDSUBPD    Y4, Y2, Y2
	VMOVUPD      Y2, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          scaleLoop
	VZEROUPPER

scaleDone:
	RET

// func hermitianPairsAVX2(a, b []complex128)
//
// hermitianPairsGo: with x = a[i] and y = b[len(b)−1−i] (two of b's
// bins loaded from the end backwards and swapped by VPERMPD),
// h = [(x.re + y.re)·0.5, (x.im − y.im)·0.5], x the first source of the
// sum and the difference (VADDPD, VSUBPD, VBLENDPD, VMULPD); a[i] = h
// and b[j] = conj(h), the sign of h.im flipped (VXORPD).
TEXT ·hermitianPairsAVX2(SB), NOSPLIT, $0-48
	MOVQ         a_base+0(FP), DI
	MOVQ         a_len+8(FP), CX
	MOVQ         b_base+24(FP), SI
	MOVQ         CX, AX
	SHRQ         $1, CX
	JZ           hermDone
	SHLQ         $4, AX
	LEAQ         -32(SI)(AX*1), SI     // b's last two bins
	VMOVUPD      ·halves(SB), Y15
	VMOVUPD      ·conjMask(SB), Y14

hermLoop:
	VMOVUPD      (DI), Y0              // x
	VPERMPD      $0x4e, (SI), Y1       // y, reversed
	VADDPD       Y1, Y0, Y2            // x + y
	VSUBPD       Y1, Y0, Y3            // x − y
	VBLENDPD     $0xa, Y3, Y2, Y2
	VMULPD       Y15, Y2, Y2           // h
	VMOVUPD      Y2, (DI)
	VXORPD       Y14, Y2, Y2           // conj(h)
	VPERMPD      $0x4e, Y2, Y2
	VMOVUPD      Y2, (SI)
	ADDQ         $32, DI
	SUBQ         $32, SI
	DECQ         CX
	JNZ          hermLoop
	VZEROUPPER

hermDone:
	RET

// Offsets into sweepGroup.
#define G_R 0
#define G_W 24
#define G_SCALE 48
#define G_KEEP 72
#define G_SUM 96
#define G_TG 120
#define G_N 128
#define G_K 136

// CORNER runs one corner over the four pixels at byte offset BX, with
// the target in Y14 and 1.0 in Y15:
//
//	d = r − tg                          VSUBPD
//	sum += d·d, lane 0, 1, 2, 3         VMULPD, then four VADDSD in
//	                                    ascending j (sum the first source)
//	x = (1 − r)·((d·scale)·r)           VMULPD, VMULPD, VSUBPD, VMULPD
//	w = x + (w & keep)                  VANDPD, VADDPD: keep = 0 gives
//	                                    x + 0, the first corner's 0 + x
#define CORNER(R, W, SCALE, KEEP, SUM) \
	VMOVUPD      (R)(BX*1), Y0; \
	VSUBPD       Y14, Y0, Y1; \
	VMULPD       Y1, Y1, Y2; \
	VADDSD       X2, SUM, SUM; \
	VPERMILPD    $1, X2, X3; \
	VADDSD       X3, SUM, SUM; \
	VEXTRACTF128 $1, Y2, X2; \
	VADDSD       X2, SUM, SUM; \
	VPERMILPD    $1, X2, X3; \
	VADDSD       X3, SUM, SUM; \
	VMULPD       SCALE, Y1, Y1; \
	VMULPD       Y0, Y1, Y1; \
	VSUBPD       Y0, Y15, Y3; \
	VMULPD       Y1, Y3, Y3; \
	VANDPD       (W)(BX*1), KEEP, Y4; \
	VADDPD       Y4, Y3, Y3; \
	VMOVUPD      Y3, (W)(BX*1)

// func costSensAVX2(grp *sweepGroup)
//
// costSensGo for the k ≤ 3 corners of grp at once, pixel block by pixel
// block in corner order: each corner's sum stays one serial chain in
// ascending j (so the bits are the Go loop's), and the chains of the
// corners overlap.
TEXT ·costSensAVX2(SB), NOSPLIT, $0-8
	MOVQ         grp+0(FP), AX
	MOVQ         G_TG(AX), DI
	MOVQ         G_N(AX), CX
	MOVQ         G_K(AX), DX
	SHLQ         $3, CX                // bytes
	XORQ         BX, BX
	MOVQ         G_R(AX), R8
	MOVQ         G_W(AX), R9
	MOVQ         G_R+8(AX), R10
	MOVQ         G_W+8(AX), R11
	MOVQ         G_R+16(AX), R12
	MOVQ         G_W+16(AX), R13
	VBROADCASTSD G_SCALE(AX), Y13
	VBROADCASTSD G_SCALE+8(AX), Y12
	VBROADCASTSD G_SCALE+16(AX), Y11
	VBROADCASTSD G_KEEP(AX), Y10
	VBROADCASTSD G_KEEP+8(AX), Y9
	VBROADCASTSD G_KEEP+16(AX), Y8
	VMOVSD       G_SUM(AX), X7
	VMOVSD       G_SUM+8(AX), X6
	VMOVSD       G_SUM+16(AX), X5
	VMOVUPD      ·ones(SB), Y15
	CMPQ         DX, $2
	JEQ          loop2
	JGT          loop3

loop1:
	VMOVUPD      (DI)(BX*1), Y14
	CORNER(R8, R9, Y13, Y10, X7)
	ADDQ         $32, BX
	CMPQ         BX, CX
	JLT          loop1
	JMP          sweepDone

loop2:
	VMOVUPD      (DI)(BX*1), Y14
	CORNER(R8, R9, Y13, Y10, X7)
	CORNER(R10, R11, Y12, Y9, X6)
	ADDQ         $32, BX
	CMPQ         BX, CX
	JLT          loop2
	JMP          sweepDone

loop3:
	VMOVUPD      (DI)(BX*1), Y14
	CORNER(R8, R9, Y13, Y10, X7)
	CORNER(R10, R11, Y12, Y9, X6)
	CORNER(R12, R13, Y11, Y8, X5)
	ADDQ         $32, BX
	CMPQ         BX, CX
	JLT          loop3

sweepDone:
	VMOVSD       X7, G_SUM(AX)
	VMOVSD       X6, G_SUM+8(AX)
	VMOVSD       X5, G_SUM+16(AX)
	VZEROUPPER
	RET
