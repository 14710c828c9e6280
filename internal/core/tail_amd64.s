#include "textflag.h"

// AVX2 forms of the level-set tail's per-pixel loops (tail.go). Each Go
// operation is one instruction that rounds once, with the operand order
// the Go code generator gives the Go loop (the first source decides
// which NaN a two-NaN operation returns). No FMA: Go does not fuse
// these products on amd64.

// GRADROWS sets g = G·g (G the first source) for the four pixels at
// byte offset 0 of chunks 0–3 (chunk c at c·R10 bytes, R11 = 3·R10),
// leaving the products in Y0–Y3.
#define GRADROWS \
	VMOVUPD      (SI), Y0; \
	VMULPD       (DI), Y0, Y0; \
	VMOVUPD      Y0, (DI); \
	VMOVUPD      (SI)(R10*1), Y1; \
	VMULPD       (DI)(R10*1), Y1, Y1; \
	VMOVUPD      Y1, (DI)(R10*1); \
	VMOVUPD      (SI)(R10*2), Y2; \
	VMULPD       (DI)(R10*2), Y2, Y2; \
	VMOVUPD      Y2, (DI)(R10*2); \
	VMOVUPD      (SI)(R11*1), Y3; \
	VMULPD       (DI)(R11*1), Y3, Y3; \
	VMOVUPD      Y3, (DI)(R11*1)

// LOADROWS loads the four pixels at B of chunks 0–3 into Y0–Y3.
#define LOADROWS(B) \
	VMOVUPD      (B), Y0; \
	VMOVUPD      (B)(R10*1), Y1; \
	VMOVUPD      (B)(R10*2), Y2; \
	VMOVUPD      (B)(R11*1), Y3

// TRANSPOSE turns rows Y0–Y3 (chunk c's pixels j..j+3 in row c) into
// columns T0–T3 (pixel j+k of chunks 0–3 in column k), through Y8–Y11.
#define TRANSPOSE(T0, T1, T2, T3) \
	VUNPCKLPD    Y1, Y0, Y8; \
	VUNPCKHPD    Y1, Y0, Y9; \
	VUNPCKLPD    Y3, Y2, Y10; \
	VUNPCKHPD    Y3, Y2, Y11; \
	VPERM2F128   $0x20, Y10, Y8, T0; \
	VPERM2F128   $0x20, Y11, Y9, T1; \
	VPERM2F128   $0x31, Y10, Y8, T2; \
	VPERM2F128   $0x31, Y11, Y9, T3

// func gradSumsAVX2(g, G, gp, v []float64, chunkLen int, sums *[numSums][tailLanes]float64)
//
// gradSumsGo for four chunks at once, lane c running chunk c. Per block
// of four pixels the products g = G·g are formed and stored row by row,
// then g, g_prev and v_prev are transposed so that column k holds pixel
// j+k of every chunk, and each sum takes columns 0, 1, 2, 3 in turn:
// every chunk's sum stays one serial chain in ascending pixel order,
// and the four chunks' chains overlap. Operand order, as in Go:
//
//	g·g:            Y12 = Y12 + g·g          (sum first)
//	g·g_prev:       Y13 = Y13 + g_prev·g     (sum first, g_prev first)
//	g_prev·g_prev:  Y14 = g_prev·g_prev + Y14 (product first)
//	v_prev·g:       Y15 = Y15 + v_prev·g     (sum first, v_prev first)
TEXT ·gradSumsAVX2(SB), NOSPLIT, $0-112
	MOVQ         g_base+0(FP), DI
	MOVQ         G_base+24(FP), SI
	MOVQ         gp_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         chunkLen+96(FP), CX
	MOVQ         sums+104(FP), AX
	LEAQ         (CX*8), R10           // chunk stride in bytes
	LEAQ         (R10)(R10*2), R11     // three chunks
	SHRQ         $2, CX
	JZ           sumsStore
	VXORPD       Y12, Y12, Y12
	VXORPD       Y13, Y13, Y13
	VXORPD       Y14, Y14, Y14
	VXORPD       Y15, Y15, Y15

sumsLoop:
	GRADROWS
	TRANSPOSE(Y4, Y5, Y6, Y7)
	VMULPD       Y4, Y4, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y5, Y5, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y6, Y6, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y7, Y7, Y8
	VADDPD       Y8, Y12, Y12
	LOADROWS(R8)
	TRANSPOSE(Y0, Y1, Y2, Y3)
	VMULPD       Y4, Y0, Y8
	VADDPD       Y8, Y13, Y13
	VMULPD       Y0, Y0, Y8
	VADDPD       Y14, Y8, Y14
	VMULPD       Y5, Y1, Y8
	VADDPD       Y8, Y13, Y13
	VMULPD       Y1, Y1, Y8
	VADDPD       Y14, Y8, Y14
	VMULPD       Y6, Y2, Y8
	VADDPD       Y8, Y13, Y13
	VMULPD       Y2, Y2, Y8
	VADDPD       Y14, Y8, Y14
	VMULPD       Y7, Y3, Y8
	VADDPD       Y8, Y13, Y13
	VMULPD       Y3, Y3, Y8
	VADDPD       Y14, Y8, Y14
	LOADROWS(R9)
	TRANSPOSE(Y0, Y1, Y2, Y3)
	VMULPD       Y4, Y0, Y8
	VADDPD       Y8, Y15, Y15
	VMULPD       Y5, Y1, Y8
	VADDPD       Y8, Y15, Y15
	VMULPD       Y6, Y2, Y8
	VADDPD       Y8, Y15, Y15
	VMULPD       Y7, Y3, Y8
	VADDPD       Y8, Y15, Y15
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	DECQ         CX
	JNZ          sumsLoop
	VMOVUPD      Y12, (AX)
	VMOVUPD      Y13, 32(AX)
	VMOVUPD      Y14, 64(AX)
	VMOVUPD      Y15, 96(AX)
	VZEROUPPER
	RET

sumsStore:
	VXORPD       Y0, Y0, Y0
	VMOVUPD      Y0, (AX)
	VMOVUPD      Y0, 32(AX)
	VMOVUPD      Y0, 64(AX)
	VMOVUPD      Y0, 96(AX)
	VZEROUPPER
	RET

// func gradNormAVX2(g, G []float64, chunkLen int, sums *[tailLanes]float64)
//
// gradNormGo for four chunks at once: gradSumsAVX2's g·g chain alone.
TEXT ·gradNormAVX2(SB), NOSPLIT, $0-64
	MOVQ         g_base+0(FP), DI
	MOVQ         G_base+24(FP), SI
	MOVQ         chunkLen+48(FP), CX
	MOVQ         sums+56(FP), AX
	LEAQ         (CX*8), R10
	LEAQ         (R10)(R10*2), R11
	VXORPD       Y12, Y12, Y12
	SHRQ         $2, CX
	JZ           normStore

normLoop:
	GRADROWS
	TRANSPOSE(Y4, Y5, Y6, Y7)
	VMULPD       Y4, Y4, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y5, Y5, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y6, Y6, Y8
	VADDPD       Y8, Y12, Y12
	VMULPD       Y7, Y7, Y8
	VADDPD       Y8, Y12, Y12
	ADDQ         $32, DI
	ADDQ         $32, SI
	DECQ         CX
	JNZ          normLoop

normStore:
	VMOVUPD      Y12, (AX)
	VZEROUPPER
	RET

// func velocityAVX2(v, g []float64, lambda float64, copyOnly int) float64
//
// velocityGo: v = v·λ + g (the product v·λ, then the product first in
// the sum), or v = g when copyOnly is 1, and the max of |v|. The max
// keeps per lane max = |v| > max ? |v| : max, which is VMAXPD with |v|
// the first source, so a NaN lane never wins; the lanes are combined
// at the end, where no NaN is left and the order does not matter.
TEXT ·velocityAVX2(SB), NOSPLIT, $0-72
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         copyOnly+56(FP), DX
	VBROADCASTSD lambda+48(FP), Y15
	VMOVUPD      ·absMask(SB), Y14
	VXORPD       Y13, Y13, Y13         // max, +0
	SHRQ         $2, CX
	JZ           velDone
	TESTQ        DX, DX
	JNZ          copyLoop

velLoop:
	VMOVUPD      (DI), Y0
	VMULPD       Y15, Y0, Y0           // v·λ
	VADDPD       (SI), Y0, Y0          // … + g
	VMOVUPD      Y0, (DI)
	VANDPD       Y14, Y0, Y0
	VMAXPD       Y13, Y0, Y13
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          velLoop
	JMP          velDone

copyLoop:
	VMOVUPD      (SI), Y0
	VMOVUPD      Y0, (DI)
	VANDPD       Y14, Y0, Y0
	VMAXPD       Y13, Y0, Y13
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          copyLoop

velDone:
	VEXTRACTF128 $1, Y13, X0
	VMAXPD       X13, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXPD       X1, X0, X0
	VMOVSD       X0, ret+64(FP)
	VZEROUPPER
	RET
