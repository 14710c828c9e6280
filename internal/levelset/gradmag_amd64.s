#include "textflag.h"

// AVX2 form of gradMagGo (levelset.go), four float64 per YMM register.
// The central differences are one subtraction and one multiplication
// each, as in Go. math.Hypot on amd64 is archHypot
// ($GOROOT/src/math/hypot_amd64.s), and every step of it is a correctly
// rounded IEEE operation, so its lane-wise replica gives the same bits:
//
//	p, q = |p|, |q|                    VANDPD with the magnitude mask
//	max · sqrt(1 + (min/max)²)         VMAXPD, VMINPD, VDIVPD, VMULPD,
//	                                   VADDPD, VSQRTPD, VMULPD
//	both zero → +0                     VCMPPD max == 0, VBLENDVPD
//	either NaN → 0x7FF8000000000001    VCMPPD unordered, VBLENDVPD
//	either ±Inf → +Inf                 VCMPPD == +Inf, VBLENDVPD, last,
//	                                   as archHypot tests Inf first
//
// On finite, non-NaN operands MAXPD and MINPD pick by value as MAXSD and
// MINSD do (equal operands are equal values), and the lanes where they
// could differ (NaN) are overwritten.

// Offsets into hypotLanes, one 32-byte vector each.
#define HALF 0
#define ABS 32
#define ONE 64
#define INF 96
#define NAN 128

// func gradMagAVX2(out, row, up, down []float64, k float64)
TEXT ·gradMagAVX2(SB), NOSPLIT, $0-104
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         row_base+24(FP), SI
	MOVQ         up_base+48(FP), R8
	MOVQ         down_base+72(FP), R9
	SHRQ         $2, CX
	JZ           done
	LEAQ         ·hypotLanes(SB), AX
	VBROADCASTSD k+96(FP), Y15
	VMOVUPD      HALF(AX), Y14
	VMOVUPD      ABS(AX), Y13
	VMOVUPD      ONE(AX), Y12
	VMOVUPD      INF(AX), Y11
	VMOVUPD      NAN(AX), Y10
	VXORPD       Y9, Y9, Y9            // +0

loop:
	VMOVUPD      16(SI), Y0            // row[i+2]
	VSUBPD       (SI), Y0, Y0          // row[i+2] − row[i]
	VMULPD       Y14, Y0, Y0           // p
	VMOVUPD      (R9), Y1              // down[i]
	VSUBPD       (R8), Y1, Y1          // down[i] − up[i]
	VMULPD       Y15, Y1, Y1           // q
	VANDPD       Y13, Y0, Y0           // |p|
	VANDPD       Y13, Y1, Y1           // |q|
	VMAXPD       Y1, Y0, Y2            // max
	VMINPD       Y1, Y0, Y3            // min
	VDIVPD       Y2, Y3, Y3            // min/max
	VMULPD       Y3, Y3, Y3
	VADDPD       Y12, Y3, Y3           // 1 + (min/max)²
	VSQRTPD      Y3, Y3
	VMULPD       Y3, Y2, Y3            // max·sqrt(…)
	VCMPPD       $0x00, Y9, Y2, Y4     // max == 0 (EQ_OQ)
	VBLENDVPD    Y4, Y9, Y3, Y3
	VCMPPD       $0x03, Y1, Y0, Y4     // |p| or |q| NaN (UNORD_Q)
	VBLENDVPD    Y4, Y10, Y3, Y3
	VCMPPD       $0x00, Y11, Y0, Y4    // |p| == +Inf
	VCMPPD       $0x00, Y11, Y1, Y5    // |q| == +Inf
	VORPD        Y5, Y4, Y4
	VBLENDVPD    Y4, Y11, Y3, Y3
	VMOVUPD      Y3, (DI)
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop
	VZEROUPPER

done:
	RET
