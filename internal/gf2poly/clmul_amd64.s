//go:build amd64

#include "textflag.h"

// func clmulAsm(a, b uint64) (hi, lo uint64)
//
// One PCLMULQDQ over the low quadwords of X0 and X1: X0 = clmul(a, b),
// 127 bits. The low half is stored directly; PSRLDQ shifts the high half
// down for the second store.
TEXT ·clmulAsm(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), X0
	MOVQ b+8(FP), X1
	PCLMULQDQ $0x00, X1, X0
	MOVQ X0, lo+24(FP)
	PSRLDQ $8, X0
	MOVQ X0, hi+16(FP)
	RET

// func clmulWindowAsm(d0, d1 uint64, xs []uint64, off uint, mask, b uint64, dst []uint64)
//
// Per element x: PCLMULQDQ d0·x gives the product words p0 (AX) and p1
// (DX); when d1 ≠ 0 a second PCLMULQDQ folds the low word of d1·x into
// p1. SHRQ CX, DX, AX (SHRD) then shifts the 128-bit p1:p0 right by off
// into AX — a zero count leaves p0, as the Go loop's shift by 64 does —
// and AND/XOR apply the mask and the offset. d1 is tested once, outside
// the loop. The caller guarantees len(xs) > 0 and len(dst) ≥ len(xs).
TEXT ·clmulWindowAsm(SB), NOSPLIT, $0-88
	MOVQ d0+0(FP), X1
	MOVQ d1+8(FP), X2
	MOVQ xs_base+16(FP), SI
	MOVQ xs_len+24(FP), BX
	MOVQ off+40(FP), CX
	MOVQ mask+48(FP), R8
	MOVQ b+56(FP), R9
	MOVQ dst_base+64(FP), DI
	MOVQ d1+8(FP), R10
	TESTQ R10, R10
	JNZ two

one:
	MOVQ (SI), X0
	PCLMULQDQ $0x00, X1, X0
	MOVQ X0, AX
	PSRLDQ $8, X0
	MOVQ X0, DX
	SHRQ CX, DX, AX
	ANDQ R8, AX
	XORQ R9, AX
	MOVQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ BX
	JNZ one
	RET

two:
	MOVQ (SI), X0
	MOVO X0, X3
	PCLMULQDQ $0x00, X1, X0
	PCLMULQDQ $0x00, X2, X3
	MOVQ X0, AX
	PSRLDQ $8, X0
	MOVQ X0, DX
	MOVQ X3, R11
	XORQ R11, DX
	SHRQ CX, DX, AX
	ANDQ R8, AX
	XORQ R9, AX
	MOVQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ BX
	JNZ two
	RET

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET
