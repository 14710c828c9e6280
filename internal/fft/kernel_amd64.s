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

// The column passes' data movement (batch.go, moves.go) for one full
// block of four complex128 columns. The column scratch holds column c
// at c·h·16 bytes, row y of the strided source or destination starts
// at y·w elements. Every kernel only copies bits, or does exactly what
// its Go loop does per part: one multiply by the same scale, or the
// packed gather's one subtraction and one addition, so each is
// bit-identical to its loop. They touch only the 128-bit halves (VEX
// encoded) except where they load or store two complex128 at once.

// The four column pointers of the scratch at R9: R10, R11, R12 are
// columns 1, 2, 3, with AX the column length in bytes.
#define COLUMNS \
	LEAQ (R9)(AX*1), R10;  \
	LEAQ (R10)(AX*1), R11; \
	LEAQ (R11)(AX*1), R12

// R8 = the byte offset of row DX's bit-reversed slot rev[DX] (rev at DI).
#define SLOT \
	MOVLQSX (DI)(DX*4), R8; \
	SHLQ    $4, R8

// Zeros (X7) into the slot of the current row of all four columns.
#define ZERO_ROW \
	SLOT;                     \
	VMOVUPD X7, (R9)(R8*1);   \
	VMOVUPD X7, (R10)(R8*1);  \
	VMOVUPD X7, (R11)(R8*1);  \
	VMOVUPD X7, (R12)(R8*1)

// The four elements of the source row at SI into their slots.
#define GATHER_ROW \
	SLOT;                     \
	VMOVUPD (SI), X0;         \
	VMOVUPD 16(SI), X1;       \
	VMOVUPD 32(SI), X2;       \
	VMOVUPD 48(SI), X3;       \
	VMOVUPD X0, (R9)(R8*1);   \
	VMOVUPD X1, (R10)(R8*1);  \
	VMOVUPD X2, (R11)(R8*1);  \
	VMOVUPD X3, (R12)(R8*1)

// The four column pairs (a, b) of the source row at SI, packed as
// complex(re a − im b, im a + re b) into their slots: VPERMILPD $1
// swaps b to [im b, re b] and VADDSUBPD subtracts in the real slot and
// adds in the imaginary one, the Go loop's two rounded operations.
#define PAIR(off, col) \
	VMOVUPD   off(SI), X0;      \
	VPERMILPD $1, off+16(SI), X1; \
	VADDSUBPD X1, X0, X0;       \
	VMOVUPD   X0, (col)(R8*1)

#define PAIRS_ROW \
	SLOT;           \
	PAIR(0, R9);    \
	PAIR(32, R10);  \
	PAIR(64, R11);  \
	PAIR(96, R12)

// The rest of the gathers' set-up, given s at R9, src at SI, rev at
// DI, h in CX and w in BX: the column pointers, the row stride w·16 in
// BX, zeros in X7 and the row index DX = 0.
#define GATHER_SETUP \
	MOVQ   CX, AX;     \
	SHLQ   $4, AX;     \
	COLUMNS;           \
	SHLQ   $4, BX;     \
	VXORPD X7, X7, X7; \
	XORQ   DX, DX

// func gatherAVX2(s, src []complex128, rev []int32, w, lo, hi int)
TEXT ·gatherAVX2(SB), NOSPLIT, $0-96
	MOVQ s_base+0(FP), R9
	MOVQ src_base+24(FP), SI
	MOVQ rev_base+48(FP), DI
	MOVQ rev_len+56(FP), CX
	MOVQ w+72(FP), BX
	GATHER_SETUP

gcopy:
	CMPQ DX, lo+80(FP)
	JAE  gzero
	GATHER_ROW
	ADDQ BX, SI
	INCQ DX
	JMP  gcopy

gzero:
	CMPQ DX, hi+88(FP)
	JAE  gtail
	ZERO_ROW
	ADDQ BX, SI
	INCQ DX
	JMP  gzero

gtail:
	CMPQ DX, CX
	JAE  gdone
	GATHER_ROW
	ADDQ BX, SI
	INCQ DX
	JMP  gtail

gdone:
	RET

// func gatherPairsAVX2(s, src []complex128, rev []int32, w, lo, hi int)
TEXT ·gatherPairsAVX2(SB), NOSPLIT, $0-96
	MOVQ s_base+0(FP), R9
	MOVQ src_base+24(FP), SI
	MOVQ rev_base+48(FP), DI
	MOVQ rev_len+56(FP), CX
	MOVQ w+72(FP), BX
	GATHER_SETUP

pcopy:
	CMPQ DX, lo+80(FP)
	JAE  pzero
	PAIRS_ROW
	ADDQ BX, SI
	INCQ DX
	JMP  pcopy

pzero:
	CMPQ DX, hi+88(FP)
	JAE  ptail
	ZERO_ROW
	ADDQ BX, SI
	INCQ DX
	JMP  pzero

ptail:
	CMPQ DX, CX
	JAE  pdone
	PAIRS_ROW
	ADDQ BX, SI
	INCQ DX
	JMP  ptail

pdone:
	RET

// The scatters: row DX (a byte offset, 16 per row) of the four scratch
// columns at R9..R12 into Y0 = [c0, c1] and Y1 = [c2, c3].
#define SCATTER_LOAD \
	VMOVUPD     (R9)(DX*1), X0;          \
	VINSERTF128 $1, (R10)(DX*1), Y0, Y0; \
	VMOVUPD     (R11)(DX*1), X1;         \
	VINSERTF128 $1, (R12)(DX*1), Y1, Y1

#define SCATTER_STORE \
	VMOVUPD Y0, (DI);   \
	VMOVUPD Y1, 32(DI); \
	ADDQ    BX, DI;     \
	ADDQ    $16, DX

// The rest of the scatters' set-up, given dst at DI, s at R9 and h in
// CX: the column pointers, h·16 in CX (= AX, the column length in
// bytes) and the row offset DX = 0.
#define SCATTER_SETUP \
	SHLQ $4, CX;             \
	MOVQ CX, AX;             \
	COLUMNS;                 \
	XORQ DX, DX

// func scatterAVX2(dst, s []complex128, w, h int)
TEXT ·scatterAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R9
	MOVQ w+48(FP), BX
	MOVQ h+56(FP), CX
	SCATTER_SETUP
	SHLQ $4, BX

sloop:
	CMPQ DX, CX
	JAE  sdone
	SCATTER_LOAD
	SCATTER_STORE
	JMP  sloop

sdone:
	VZEROUPPER
	RET

// func scatterScaledAVX2(dst, s []complex128, w, h int, sc float64)
TEXT ·scatterScaledAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R9
	MOVQ w+48(FP), BX
	MOVQ h+56(FP), CX
	SCATTER_SETUP
	SHLQ         $4, BX
	VBROADCASTSD sc+64(FP), Y15

ssloop:
	CMPQ   DX, CX
	JAE    ssdone
	SCATTER_LOAD
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	SCATTER_STORE
	JMP    ssloop

ssdone:
	VZEROUPPER
	RET

// The real scatter is the scaled one with a float64 destination: row y
// of the four column pairs is the same 64 bytes, real and imaginary
// parts interleaved, at a row stride of w·8 bytes.
//
// func scatterRealAVX2(dst []float64, s []complex128, w, h int, sc float64)
TEXT ·scatterRealAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R9
	MOVQ w+48(FP), BX
	MOVQ h+56(FP), CX
	SCATTER_SETUP
	SHLQ         $3, BX
	VBROADCASTSD sc+64(FP), Y15

srloop:
	CMPQ   DX, CX
	JAE    srdone
	SCATTER_LOAD
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	SCATTER_STORE
	JMP    srloop

srdone:
	VZEROUPPER
	RET

// func packAVX2(d []complex128, r0, r1 []float64)
TEXT ·packAVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), R8
	SHRQ $2, CX
	JZ   pkdone

pkloop:
	VMOVUPD    (SI), Y0          // [a0, a1, a2, a3]
	VMOVUPD    (R8), Y1          // [b0, b1, b2, b3]
	VUNPCKLPD  Y1, Y0, Y2        // [a0, b0, a2, b2]
	VUNPCKHPD  Y1, Y0, Y3        // [a1, b1, a3, b3]
	VPERM2F128 $0x20, Y3, Y2, Y4 // [a0, b0, a1, b1]
	VPERM2F128 $0x31, Y3, Y2, Y5 // [a2, b2, a3, b3]
	VMOVUPD    Y4, (DI)
	VMOVUPD    Y5, 32(DI)
	ADDQ       $32, SI
	ADDQ       $32, R8
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pkloop

pkdone:
	VZEROUPPER
	RET

// func unpackAVX2(z0, z1, e0, e1 []complex128)
//
// unpackGo, two bin pairs per iteration: Z[k] from z0 and Z[m] from e0
// read backwards (VPERMPD swaps its two complexes). The Go code
// generator compiles the loop to (first sources first):
//
//	a = Z[k] + conj Z[m]             b = Z[k] − conj Z[m]
//	c = [a.re, Z[m].im + conj Z[k].im]  (c.re is a.re: Go computes the
//	                                 sum zk.re + zm.re once for both)
//	d = Z[m] − conj Z[k]
//	z0 = [a.re·0.5 − 0·a.im, a.im·0.5 + 0·a.re]   e0 the same of c
//	z1 = [0·b.re − (−0.5)·b.im, b.im·0 + b.re·(−0.5)]   e1 of d
//
// so each output is VADDSUBPD of P and Q: P = s·0.5, Q = swap(s)·0 for
// the halves, P = s·0, Q = swap(s)·(−0.5) for the −0.5i products (a
// product with a constant has one NaN source at most, so its order is
// free).
TEXT ·unpackAVX2(SB), NOSPLIT, $0-96
	MOVQ         z0_base+0(FP), DI
	MOVQ         z0_len+8(FP), CX
	MOVQ         z1_base+24(FP), SI
	MOVQ         e0_base+48(FP), R8
	MOVQ         e1_base+72(FP), R9
	MOVQ         CX, AX
	SHRQ         $1, CX
	JZ           unpackDone
	SHLQ         $4, AX
	LEAQ         -32(R8)(AX*1), R8     // e0's last two bins
	LEAQ         -32(R9)(AX*1), R9
	LEAQ         ·unpackLanes(SB), AX
	VMOVUPD      (AX), Y15             // 0.5
	VMOVUPD      32(AX), Y14           // −0.5
	VMOVUPD      64(AX), Y13           // conj mask
	VXORPD       Y12, Y12, Y12         // +0

unpackLoop:
	VMOVUPD      (DI), Y0              // Z[k]
	VPERMPD      $0x4e, (R8), Y1       // Z[m]
	VXORPD       Y13, Y1, Y2           // conj Z[m]
	VXORPD       Y13, Y0, Y3           // conj Z[k]
	VADDPD       Y2, Y0, Y4            // a
	VSUBPD       Y2, Y0, Y5            // b
	VADDPD       Y3, Y1, Y6
	VBLENDPD     $0xa, Y6, Y4, Y6      // c
	VSUBPD       Y3, Y1, Y7            // d
	VMULPD       Y15, Y4, Y8           // z0
	VPERMILPD    $0x5, Y4, Y9
	VMULPD       Y12, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8
	VMOVUPD      Y8, (DI)
	VMULPD       Y12, Y5, Y8           // z1
	VPERMILPD    $0x5, Y5, Y9
	VMULPD       Y14, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8
	VMOVUPD      Y8, (SI)
	VMULPD       Y15, Y6, Y8           // e0
	VPERMILPD    $0x5, Y6, Y9
	VMULPD       Y12, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8
	VPERMPD      $0x4e, Y8, Y8
	VMOVUPD      Y8, (R8)
	VMULPD       Y12, Y7, Y8           // e1
	VPERMILPD    $0x5, Y7, Y9
	VMULPD       Y14, Y9, Y9
	VADDSUBPD    Y9, Y8, Y8
	VPERMPD      $0x4e, Y8, Y8
	VMOVUPD      Y8, (R9)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $32, R8
	SUBQ         $32, R9
	DECQ         CX
	JNZ          unpackLoop
	VZEROUPPER

unpackDone:
	RET
