#include "textflag.h"

// AVX2+FMA form of sigmoidGo (sigmoid.go), four float64 per YMM
// register. Each Go operation is one instruction that rounds once, on
// the same constants (sigmoidLanes), so every lane matches the Go loop
// bit for bit:
//
//	z = (−s)·(v·dose−t)                VMULPD, VSUBPD, VMULPD (−s comes
//	                                   negated)
//	kd = (z·N/ln2 + shift) − shift     VMULPD, VADDPD, VSUBPD
//	k = bits(kd + shift) − bits(shift) VPSUBQ: kd + shift is an integer
//	                                   in [2^52, 2^53), where ulp = 1
//	r = FMA(−kd, ln2Hi, z), then lo    VFNMADD231PD (−(a·b)+c and
//	                                   (−a)·b+c are the same exact value)
//	q, p = FMA chain of the polynomial VFMADD213PD
//	2^(j/N), j = k & (N−1)             VPAND, VGATHERQPD from expTable
//	2^(k>>7) as bits (k>>7+1023)<<52   VPADDQ 1023·N, VPSRLQ 7, VPSLLQ 52:
//	                                   in range k ≥ −708·N/ln2 > −1023·N,
//	                                   so the logical shift is the
//	                                   arithmetic one
//	e = FMA(tj, p, tj)·scale           VFMADD213PD, VMULPD
//	1/(1+e)                            VADDPD, VDIVPD
//
// IEEE products and sums are commutative, so operand order changes no
// bit but the payload of a two-NaN result, which is the first source's;
// z takes Go's order, (v·dose − t) first. Lanes whose z is outside
// ±expFast or NaN get z, as in the Go loop (VCMPPD with the ordered
// predicates, VBLENDVPD), and the result flag says whether any lane did.
// Their gather index stays in the table (j = k & (N−1)) whatever k is.

// Offsets into sigmoidLanes, one 32-byte vector each.
#define INVLN2N 0
#define SHIFT 32
#define LN2HI 64
#define LN2LO 96
#define ZMIN 128
#define ZMAX 160
#define C120 192
#define C24 224
#define C6 256
#define CHALF 288
#define ONE 320
#define JMASK 352
#define BIAS 384

// func sigmoidAVX2(dst, a []float64, dose, ns, t float64) (slow bool)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-73
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	SHRQ         $2, CX
	LEAQ         ·sigmoidLanes(SB), R8
	LEAQ         ·expTable(SB), R9
	VBROADCASTSD dose+48(FP), Y9
	VBROADCASTSD ns+56(FP), Y15
	VBROADCASTSD t+64(FP), Y14
	VMOVUPD      INVLN2N(R8), Y13
	VMOVUPD      SHIFT(R8), Y12
	VMOVUPD      LN2HI(R8), Y11
	VMOVUPD      LN2LO(R8), Y10
	VMOVUPD      ZMAX(R8), Y8
	VPCMPEQQ     Y7, Y7, Y7            // AND of every lane's in-range mask
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD      (SI), Y0
	VMULPD       Y9, Y0, Y0            // v·dose
	VSUBPD       Y14, Y0, Y0           // v·dose − t
	VMULPD       Y15, Y0, Y0           // z = (v·dose − t)·(−s), Go's order
	VCMPPD       $0x1d, ZMIN(R8), Y0, Y1 // z ≥ −expFast (GE_OQ)
	VCMPPD       $0x12, Y8, Y0, Y2     // z ≤ expFast (LE_OQ)
	VANDPD       Y2, Y1, Y1            // in range
	VANDPD       Y1, Y7, Y7
	VMULPD       Y13, Y0, Y2
	VADDPD       Y12, Y2, Y2           // kd + shift
	VSUBPD       Y12, Y2, Y3           // kd
	VPSUBQ       Y12, Y2, Y2           // k
	VMOVAPD      Y0, Y4
	VFNMADD231PD Y11, Y3, Y4           // r = z − kd·ln2Hi
	VFNMADD231PD Y10, Y3, Y4           // r = r − kd·ln2Lo
	VMOVUPD      C120(R8), Y5
	VFMADD213PD  C24(R8), Y4, Y5       // q = r·q + 1/24
	VFMADD213PD  C6(R8), Y4, Y5        // q = r·q + 1/6
	VFMADD213PD  CHALF(R8), Y4, Y5     // q = r·q + 1/2
	VMULPD       Y4, Y4, Y6            // r·r
	VFMADD213PD  Y4, Y6, Y5            // p = (r·r)·q + r
	VPAND        JMASK(R8), Y2, Y3     // j
	VPCMPEQQ     Y6, Y6, Y6            // gather every lane
	VGATHERQPD   Y6, (R9)(Y3*8), Y4    // tj
	VFMADD213PD  Y4, Y4, Y5            // tj·p + tj
	VPADDQ       BIAS(R8), Y2, Y2
	VPSRLQ       $7, Y2, Y2
	VPSLLQ       $52, Y2, Y2           // scale
	VMULPD       Y2, Y5, Y5            // e
	VMOVUPD      ONE(R8), Y6
	VADDPD       Y6, Y5, Y5            // 1 + e
	VDIVPD       Y5, Y6, Y5            // 1 / (1 + e)
	VBLENDVPD    Y1, Y5, Y0, Y5        // in range ? σ : z
	VMOVUPD      Y5, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop

done:
	VMOVMSKPD    Y7, AX
	CMPL         AX, $15
	SETNE        slow+72(FP)
	VZEROUPPER
	RET
