#include "textflag.h"

// func maskAVX2(dst, psi []float64)
//
// AVX2 form of maskGo (levelset.go): VCMPPD ψ ≤ 0 (LE_OQ, false for
// NaN) gives an all-ones lane inside, and its AND with 1.0 writes 1
// there and +0 elsewhere, the Go loop's two constants.
TEXT ·maskAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         psi_base+24(FP), SI
	MOVQ         psi_len+32(FP), CX
	SHRQ         $2, CX
	JZ           done
	VMOVUPD      ·oneLanes(SB), Y15
	VXORPD       Y14, Y14, Y14         // +0

loop:
	VMOVUPD      (SI), Y0
	VCMPPD       $0x12, Y14, Y0, Y0    // ψ ≤ 0 (LE_OQ)
	VANDPD       Y15, Y0, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop
	VZEROUPPER

done:
	RET
