#include "textflag.h"

// AVX2 forms of radix4First, stagePair and stage (fft.go). Each YMM
// register holds two complex128 values as [re0, im0, re1, im1], so one
// instruction runs the butterflies of two adjacent indices j, j+1.
//
// Every product t = w·a follows Go's complex128 multiply exactly,
// re = wr·ar − wi·ai and im = wr·ai + wi·ar: VMOVDDUP and VPERMILPD $0x0f
// spread wr and wi over both halves of each complex, VPERMILPD $0x05
// swaps a to [ai, ar], and VADDSUBPD subtracts in the even (real) slots
// and adds in the odd (imaginary) ones. Two rounded products and one
// rounded sum or difference per part, no FMA, so each bit matches the
// Go loop. Where the Go loop skips the multiply by the exact-1 twiddle
// (index 0 of a stage), VBLENDPD $0x03 puts the unmultiplied value back
// into the low complex of the first pair.

// CMUL sets t = w·a for the complex pairs in a, with wr and wi holding
// the twiddles' real and imaginary parts duplicated. u is clobbered.
#define CMUL(wr, wi, a, t, u) \
	VPERMILPD $0x05, a, u; \
	VMULPD    wr, a, t;    \
	VMULPD    wi, u, u;    \
	VADDSUBPD u, t, t

// TWIDDLE loads the twiddle pair at addr as wr, wi.
#define TWIDDLE(addr, wr, wi) \
	VMOVDDUP  addr, wr; \
	VPERMILPD $0x0f, addr, wi

// func radix4FirstAVX2(x []complex128, w2 complex128)
TEXT ·radix4FirstAVX2(SB), NOSPLIT, $0-40
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	SHRQ         $2, CX
	JZ           r4done
	VBROADCASTSD w2_real+24(FP), Y14
	VBROADCASTSD w2_imag+32(FP), Y13

r4loop:
	VMOVUPD    (DI), Y0              // [q0, q1]
	VMOVUPD    32(DI), Y1            // [q2, q3]
	VPERM2F128 $0x20, Y1, Y0, Y2     // [q0, q2]
	VPERM2F128 $0x31, Y1, Y0, Y3     // [q1, q3]
	VADDPD     Y3, Y2, Y4            // [a0, a2]
	VSUBPD     Y3, Y2, Y5            // [a1, a3]
	CMUL(Y14, Y13, Y5, Y6, Y7)       // [w2·a1, t = w2·a3]
	VBLENDPD   $0x0c, Y6, Y5, Y5     // [a1, t]
	VPERM2F128 $0x20, Y5, Y4, Y8     // [a0, a1]
	VPERM2F128 $0x31, Y5, Y4, Y9     // [a2, t]
	VADDPD     Y9, Y8, Y10           // [a0+a2, a1+t]
	VSUBPD     Y9, Y8, Y11           // [a0-a2, a1-t]
	VMOVUPD    Y10, (DI)
	VMOVUPD    Y11, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        r4loop

r4done:
	VZEROUPPER
	RET

// The stage-pair butterflies of one index pair at byte offset R11 into
// the quarter-slices q0 (DI), q1 (R12), q2 (R13) and q3 (BX), with the
// stage-h twiddles at SI and the stage-2h ones at R8 (j) and R10 (j+h).
// SP_FIRST is the first half (the two stage-h butterflies, leaving a0..a3
// in Y0..Y3 and t1 in Y4, Y5), SP_SECOND the second (the two stage-2h
// butterflies and the stores). For j = 0 the caller blends in between.
#define SP_LOAD \
	VMOVUPD (DI)(R11*1), Y0;  \
	VMOVUPD (R12)(R11*1), Y1; \
	VMOVUPD (R13)(R11*1), Y2; \
	VMOVUPD (BX)(R11*1), Y3;  \
	TWIDDLE((SI)(R11*1), Y4, Y5)

#define SP_STORE_LO \
	VADDPD  Y6, Y0, Y8;          \
	VSUBPD  Y6, Y0, Y9;          \
	VMOVUPD Y8, (DI)(R11*1);     \
	VMOVUPD Y9, (R13)(R11*1)

#define SP_STORE_HI \
	VADDPD  Y6, Y1, Y8;          \
	VSUBPD  Y6, Y1, Y9;          \
	VMOVUPD Y8, (R12)(R11*1);    \
	VMOVUPD Y9, (BX)(R11*1)

// func stagePairAVX2(x []complex128, h int, t1, t2 []complex128)
TEXT ·stagePairAVX2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), AX
	MOVQ h+24(FP), R9
	MOVQ t1_base+32(FP), SI
	MOVQ t2_base+56(FP), R8
	SHLQ $4, AX
	ADDQ DI, AX                      // end of x
	SHLQ $4, R9                      // h in bytes
	LEAQ (R8)(R9*1), R10             // &t2[h]

spblock:
	CMPQ DI, AX
	JAE  spdone
	LEAQ (DI)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	LEAQ (R13)(R9*1), BX
	XORQ R11, R11

	// j = 0, 1: the low complex skips t1[0] and t2[0], both exactly 1.
	SP_LOAD
	CMUL(Y4, Y5, Y1, Y6, Y7)
	VBLENDPD $0x03, Y1, Y6, Y6
	VSUBPD   Y6, Y0, Y1
	VADDPD   Y6, Y0, Y0
	CMUL(Y4, Y5, Y3, Y6, Y7)
	VBLENDPD $0x03, Y3, Y6, Y6
	VSUBPD   Y6, Y2, Y3
	VADDPD   Y6, Y2, Y2
	TWIDDLE((R8)(R11*1), Y4, Y5)
	CMUL(Y4, Y5, Y2, Y6, Y7)
	VBLENDPD $0x03, Y2, Y6, Y6
	SP_STORE_LO
	TWIDDLE((R10)(R11*1), Y4, Y5)
	CMUL(Y4, Y5, Y3, Y6, Y7)
	SP_STORE_HI
	ADDQ     $32, R11

sppair:
	CMPQ   R11, R9
	JAE    spnext
	SP_LOAD
	CMUL(Y4, Y5, Y1, Y6, Y7)
	VSUBPD Y6, Y0, Y1
	VADDPD Y6, Y0, Y0
	CMUL(Y4, Y5, Y3, Y6, Y7)
	VSUBPD Y6, Y2, Y3
	VADDPD Y6, Y2, Y2
	TWIDDLE((R8)(R11*1), Y4, Y5)
	CMUL(Y4, Y5, Y2, Y6, Y7)
	SP_STORE_LO
	TWIDDLE((R10)(R11*1), Y4, Y5)
	CMUL(Y4, Y5, Y3, Y6, Y7)
	SP_STORE_HI
	ADDQ   $32, R11
	JMP    sppair

spnext:
	LEAQ (BX)(R9*1), DI
	JMP  spblock

spdone:
	VZEROUPPER
	RET

// The butterflies of one index pair at byte offset R11 into the halves
// lo (DI) and hi (R12), with the twiddles at SI.
#define ST_MUL \
	VMOVUPD (R12)(R11*1), Y1;     \
	TWIDDLE((SI)(R11*1), Y4, Y5); \
	CMUL(Y4, Y5, Y1, Y6, Y7)

#define ST_STORE \
	VMOVUPD (DI)(R11*1), Y0;  \
	VADDPD  Y6, Y0, Y8;       \
	VSUBPD  Y6, Y0, Y9;       \
	VMOVUPD Y8, (DI)(R11*1);  \
	VMOVUPD Y9, (R12)(R11*1)

// func stageAVX2(x []complex128, h int, tw []complex128)
TEXT ·stageAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), AX
	MOVQ h+24(FP), R9
	MOVQ tw_base+32(FP), SI
	SHLQ $4, AX
	ADDQ DI, AX                      // end of x
	SHLQ $4, R9                      // h in bytes

stblock:
	CMPQ DI, AX
	JAE  stdone
	LEAQ (DI)(R9*1), R12
	XORQ R11, R11

	// j = 0, 1: the low complex skips tw[0], exactly 1.
	ST_MUL
	VBLENDPD $0x03, Y1, Y6, Y6
	ST_STORE
	ADDQ     $32, R11

stpair:
	CMPQ R11, R9
	JAE  stnext
	ST_MUL
	ST_STORE
	ADDQ $32, R11
	JMP  stpair

stnext:
	LEAQ (R12)(R9*1), DI
	JMP  stblock

stdone:
	VZEROUPPER
	RET
