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

// func filterScalarAsm(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int, base int, two bool) int
//
// Per element x: when the window fits the product's low word (two =
// false), PCLMULQDQ d0·x, PSRLQ shifts the window down inside X0, and MOVQ
// takes it straight from p0. Otherwise d0:d1 hold z·D (the diagonal moved
// up one place, clmulFilterScalar) and x is moved up by 63−off: the
// product is then z^(64−off)·D·x, whose window starts at coefficient 64,
// so it is the high word of d0·x' XORed with the low word of d1·x' — two
// PCLMULQDQs, one PSRLDQ and one PXOR, no 128-bit shift. AND/XOR apply
// the mask and the offset, giving w. The bound test jumps over the two
// stores unless (d & −d) & w == 0, d = w ^ mx; at the keep rates the
// sketches run at the branch is well predicted. Stores land at or before
// the element being read, so they stay inside ws and idx.
//
// R13 runs over the element indices base … base+len(xs)−1 and SI is xs
// biased by −base words, so (SI)(R13*8) is the current element.
TEXT ·filterScalarAsm(SB), NOSPLIT, $0-144
	MOVQ d0+0(FP), X1
	MOVQ d1+8(FP), X2
	MOVQ xs_base+16(FP), SI
	MOVQ xs_len+24(FP), BX
	MOVQ off+40(FP), CX
	MOVQ CX, X4
	MOVQ $63, AX
	SUBQ CX, AX
	MOVQ AX, X5
	MOVQ mask+48(FP), R9
	MOVQ mx+64(FP), R12
	MOVQ ws_base+72(FP), DI
	MOVQ idx_base+96(FP), R10
	MOVQ base+120(FP), R13
	MOVQ R13, AX
	SHLQ $3, AX
	SUBQ AX, SI
	ADDQ R13, BX
	XORQ R11, R11
	MOVBLZX two+128(FP), AX
	TESTL AX, AX
	JNZ two

one:
	MOVQ (SI)(R13*8), X0
	PCLMULQDQ $0x00, X1, X0
	PSRLQ X4, X0
	MOVQ X0, AX
	ANDQ R9, AX
	XORQ b+56(FP), AX
	MOVQ AX, DX
	XORQ R12, DX
	MOVQ DX, R8
	NEGQ R8
	ANDQ DX, R8
	TESTQ AX, R8
	JNZ oneskip
	MOVQ AX, (DI)(R11*8)
	MOVQ R13, (R10)(R11*8)
	INCQ R11
oneskip:
	INCQ R13
	CMPQ R13, BX
	JB one
	MOVQ R11, ret+136(FP)
	RET

two:
	MOVQ (SI)(R13*8), X0
	PSLLQ X5, X0
	MOVO X0, X3
	PCLMULQDQ $0x00, X1, X0
	PCLMULQDQ $0x00, X2, X3
	PSRLDQ $8, X0
	PXOR X3, X0
	MOVQ X0, AX
	ANDQ R9, AX
	XORQ b+56(FP), AX
	MOVQ AX, DX
	XORQ R12, DX
	MOVQ DX, R8
	NEGQ R8
	ANDQ DX, R8
	TESTQ AX, R8
	JNZ twoskip
	MOVQ AX, (DI)(R11*8)
	MOVQ R13, (R10)(R11*8)
	INCQ R11
twoskip:
	INCQ R13
	CMPQ R13, BX
	JB two
	MOVQ R11, ret+136(FP)
	RET

// filterLanes is the lane index vector 0, 1, …, 7 of one block.
DATA filterLanes<>+0x00(SB)/8, $0
DATA filterLanes<>+0x08(SB)/8, $1
DATA filterLanes<>+0x10(SB)/8, $2
DATA filterLanes<>+0x18(SB)/8, $3
DATA filterLanes<>+0x20(SB)/8, $4
DATA filterLanes<>+0x28(SB)/8, $5
DATA filterLanes<>+0x30(SB)/8, $6
DATA filterLanes<>+0x38(SB)/8, $7
GLOBL filterLanes<>(SB), RODATA|NOPTR, $64

// func filterAVX512Asm(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int, two bool) int
//
// Eight elements per iteration, one per qword lane of Z0. Each 128-bit
// lane holds two elements; VPCLMULQDQ $0x00 multiplies the even ones by
// d0 and $0x01 the odd ones, each into a full 128-bit lane, and
// VPUNPCKLQDQ gathers the eight low product words back in element order,
// where VPSRLQ shifts the window down. On the two-word path d0:d1 hold
// z·D and VPSLLQ first moves x up by 63−off, as in the scalar loop:
// VPUNPCKHQDQ gathers the high words of d0·x', two more VPCLMULQDQs and
// VPUNPCKLQDQ the low words of d1·x', and VPXORQ joins them. VPTERNLOGQ
// $0x6a computes (w & mask) ^ b. The bound test leaves K1 set on the kept
// lanes (VPTESTNMQ of d & −d against w). Most blocks keep nothing, and
// KORTESTW skips them; otherwise VPCOMPRESSQ packs the kept lanes' words
// and indices to the bottom of a register, both are stored whole at the
// kept count, and POPCNT of K1 (read with KMOVW, which needs only
// AVX512F) advances it. A whole-vector store at the kept count ends at or
// before the block just read, inside ws and idx. The compress goes to a
// register, not to memory: the memory form is microcoded on some CPUs
// (Zen 4). Every instruction here is VEX or EVEX encoded, VMOVQ included:
// one legacy-SSE instruction after the ZMM writes pays an SSE/AVX state
// transition, which cost ~230 ns per call on a 16-element batch.
TEXT ·filterAVX512Asm(SB), NOSPLIT, $0-136
	VPBROADCASTQ d0+0(FP), Z1
	VPBROADCASTQ d1+8(FP), Z2
	VPBROADCASTQ mask+48(FP), Z3
	VPBROADCASTQ b+56(FP), Z4
	VPBROADCASTQ mx+64(FP), Z5
	VMOVDQU64 filterLanes<>(SB), Z6
	MOVQ $8, AX
	VPBROADCASTQ AX, Z7
	MOVQ off+40(FP), CX
	VMOVQ CX, X8
	MOVQ $63, AX
	SUBQ CX, AX
	VMOVQ AX, X9
	VPXORQ Z16, Z16, Z16
	MOVQ xs_base+16(FP), SI
	MOVQ xs_len+24(FP), BX
	SHRQ $3, BX
	MOVQ ws_base+72(FP), DI
	MOVQ idx_base+96(FP), R10
	XORQ R11, R11
	MOVBLZX two+120(FP), AX
	TESTL AX, AX
	JNZ vtwo

vone:
	VMOVDQU64 (SI), Z0
	VPCLMULQDQ $0x00, Z1, Z0, Z10
	VPCLMULQDQ $0x01, Z1, Z0, Z11
	VPUNPCKLQDQ Z11, Z10, Z12
	VPSRLQ X8, Z12, Z12
	VPTERNLOGQ $0x6a, Z4, Z3, Z12
	VPXORQ Z5, Z12, Z13
	VPSUBQ Z13, Z16, Z14
	VPANDQ Z13, Z14, Z14
	VPTESTNMQ Z12, Z14, K1
	KORTESTW K1, K1
	JZ vonenext
	VPCOMPRESSQ Z12, K1, Z15
	VPCOMPRESSQ Z6, K1, Z17
	VMOVDQU64 Z15, (DI)(R11*8)
	VMOVDQU64 Z17, (R10)(R11*8)
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R11

vonenext:
	VPADDQ Z7, Z6, Z6
	ADDQ $64, SI
	DECQ BX
	JNZ vone
	VZEROUPPER
	MOVQ R11, ret+128(FP)
	RET

vtwo:
	VMOVDQU64 (SI), Z0
	VPSLLQ X9, Z0, Z0
	VPCLMULQDQ $0x00, Z1, Z0, Z10
	VPCLMULQDQ $0x01, Z1, Z0, Z11
	VPCLMULQDQ $0x00, Z2, Z0, Z18
	VPCLMULQDQ $0x01, Z2, Z0, Z19
	VPUNPCKHQDQ Z11, Z10, Z12
	VPUNPCKLQDQ Z19, Z18, Z13
	VPXORQ Z13, Z12, Z12
	VPTERNLOGQ $0x6a, Z4, Z3, Z12
	VPXORQ Z5, Z12, Z13
	VPSUBQ Z13, Z16, Z14
	VPANDQ Z13, Z14, Z14
	VPTESTNMQ Z12, Z14, K1
	KORTESTW K1, K1
	JZ vtwonext
	VPCOMPRESSQ Z12, K1, Z15
	VPCOMPRESSQ Z6, K1, Z17
	VMOVDQU64 Z15, (DI)(R11*8)
	VMOVDQU64 Z17, (R10)(R11*8)
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R11

vtwonext:
	VPADDQ Z7, Z6, Z6
	ADDQ $64, SI
	DECQ BX
	JNZ vtwo
	VZEROUPPER
	MOVQ R11, ret+128(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
