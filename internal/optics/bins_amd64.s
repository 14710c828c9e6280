#include "textflag.h"

// AVX2 forms of the per-bin loops of bins.go, two complex128 per YMM
// register. Each Go operation is one instruction that rounds once, with
// the operand order the Go code generator gives the Go loop (the first
// source decides which NaN a two-NaN operation returns), so every lane
// matches the Go loop bit for bit. No FMA: Go does not fuse these
// products on amd64.

// ZEROBINS sets M to all ones in both lanes of each complex whose box
// value C is 0 (real and imaginary parts == 0, EQ_OQ: false for NaN),
// with +0 in Z and T as scratch.
#define ZEROBINS(C, Z, T, M) \
	VCMPPD       $0x00, Z, C, M; \
	VPERMILPD    $0x5, M, T; \
	VANDPD       T, M, M

// func mulBinsAVX2(dst, src, box []complex128)
//
// dst = src·c with c = box, as Go's complex multiply compiles in
// mulBinsGo:
//
//	re = s.re·c.re − s.im·c.im       first sources s.re, s.im
//	im = c.im·s.re + s.im·c.re       first sources c.im, s.im
//
// P = [s.re, c.im]·[c.re, s.re] (VBLENDPD, VUNPCKLPD), Q = [s.im, s.im]·
// [c.im, c.re] (VPERMILPD), and VADDSUBPD gives P − Q in the real lanes
// and P + Q in the imaginary ones. Where c == 0 the bin is +0
// (VANDNPD), the Go loop's skip.
TEXT ·mulBinsAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         box_base+48(FP), DX
	SHRQ         $1, CX
	JZ           mulDone
	VXORPD       Y15, Y15, Y15         // +0

mulLoop:
	VMOVUPD      (SI), Y0              // s
	VMOVUPD      (DX), Y1              // c
	VBLENDPD     $0xa, Y1, Y0, Y2      // s.re c.im
	VUNPCKLPD    Y0, Y1, Y3            // c.re s.re
	VMULPD       Y3, Y2, Y2            // P
	VPERMILPD    $0xf, Y0, Y4          // s.im s.im
	VPERMILPD    $0x5, Y1, Y5          // c.im c.re
	VMULPD       Y5, Y4, Y4            // Q
	VADDSUBPD    Y4, Y2, Y2
	ZEROBINS(Y1, Y15, Y5, Y6)
	VANDNPD      Y2, Y6, Y2
	VMOVUPD      Y2, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $32, DI
	DECQ         CX
	JNZ          mulLoop
	VZEROUPPER

mulDone:
	RET

// func accumFlipAVX2(dst, src, box []complex128, wr, wi float64)
//
// dst += (w·s)·c with c = box[len(box)−1−i], as Go compiles it in
// accumFlipGo:
//
//	t.re = s.re·w.re − w.im·s.im     first sources s.re, w.im
//	t.im = w.im·s.re + s.im·w.re     first sources w.im, s.im
//	u.re = t.re·c.re − t.im·c.im     first sources t.re, t.im
//	u.im = t.im·c.re + t.re·c.im     first sources t.im, t.re
//	dst = u + dst                    u the first source
//
// t is [s.re, w.im]·[w.re, s.re] (VBLENDPD, VUNPCKLPD) VADDSUBPD
// [w.im, s.im]·[s.im, w.re] (VUNPCKHPD, VSHUFPD); u is t·[c.re, c.re]
// (VMOVDDUP) VADDSUBPD [t.im, t.re]·[c.im, c.im] (VPERMILPD). The box
// is walked backwards, its two complexes swapped (VPERMPD), and where
// c == 0 dst keeps its value (VBLENDVPD), the Go loop's skip.
TEXT ·accumFlipAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         box_base+48(FP), DX
	MOVQ         box_len+56(FP), AX
	SHRQ         $1, CX
	JZ           accDone
	SHLQ         $4, AX
	LEAQ         -32(DX)(AX*1), DX     // the box's last two bins
	VBROADCASTSD wr+72(FP), Y14
	VBROADCASTSD wi+80(FP), Y13
	VBLENDPD     $0xa, Y13, Y14, Y14   // W = w.re w.im
	VXORPD       Y15, Y15, Y15         // +0

accLoop:
	VMOVUPD      (SI), Y0              // s
	VBLENDPD     $0xa, Y14, Y0, Y2     // s.re w.im
	VUNPCKLPD    Y0, Y14, Y3           // w.re s.re
	VMULPD       Y3, Y2, Y2
	VUNPCKHPD    Y0, Y14, Y4           // w.im s.im
	VSHUFPD      $0x5, Y14, Y0, Y5     // s.im w.re
	VMULPD       Y5, Y4, Y4
	VADDSUBPD    Y4, Y2, Y2            // t
	VPERMPD      $0x4e, (DX), Y1       // c, reversed
	VMOVDDUP     Y1, Y3                // c.re c.re
	VMULPD       Y3, Y2, Y3
	VPERMILPD    $0x5, Y2, Y4          // t.im t.re
	VPERMILPD    $0xf, Y1, Y5          // c.im c.im
	VMULPD       Y5, Y4, Y4
	VADDSUBPD    Y4, Y3, Y3            // u
	VMOVUPD      (DI), Y6
	VADDPD       Y6, Y3, Y3            // u + dst
	ZEROBINS(Y1, Y15, Y5, Y7)
	VBLENDVPD    Y7, Y6, Y3, Y3
	VMOVUPD      Y3, (DI)
	ADDQ         $32, SI
	SUBQ         $32, DX
	ADDQ         $32, DI
	DECQ         CX
	JNZ          accLoop
	VZEROUPPER

accDone:
	RET
