#include "textflag.h"

// func addScaledAVX2(f, a []float64, s float64)
//
// AVX2 form of addScaledGo (field.go), four float64 per YMM register,
// with the Go loop's operand order: the product a·s (a the first
// source), then product + f (the product the first source). No FMA: Go
// does not fuse them on amd64.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         f_base+0(FP), DI
	MOVQ         f_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	SHRQ         $2, CX
	JZ           done
	VBROADCASTSD s+48(FP), Y15

loop:
	VMOVUPD      (SI), Y0
	VMULPD       Y15, Y0, Y0           // a·s
	VADDPD       (DI), Y0, Y0          // … + f
	VMOVUPD      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop
	VZEROUPPER

done:
	RET
