//go:build amd64

package gf2poly

// clmulAsm computes the 128-bit carry-less product of a and b with one
// PCLMULQDQ instruction (clmul_amd64.s). Callable only when hasCLMUL.
func clmulAsm(a, b uint64) (hi, lo uint64)

// filterScalarAsm is ClmulFilterBatch's PCLMULQDQ loop (clmul_amd64.s),
// one element per iteration: it writes base+k as element k's index, and
// two selects the loop that reads the product's high word and d1, with
// d0:d1 prepared by asmDiag. Callable only when hasCLMUL, with off < 64
// and outputs at least len(xs) > 0 long.
//
//go:noescape
func filterScalarAsm(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int, base int, two bool) int

// filterAVX512Asm is ClmulFilterBatch's VPCLMULQDQ loop (clmul_amd64.s)
// over blocks of 8 elements; len(xs) must be a positive multiple of 8 and
// d0:d1 prepared by asmDiag. Callable only when hasAVX512Filter.
//
//go:noescape
func filterAVX512Asm(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int, two bool) int

// cpuid executes CPUID with the given leaf and subleaf (clmul_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the register state the operating
// system saves (clmul_amd64.s). Callable only when CPUID reports OSXSAVE.
func xgetbv0() uint32

// hasCLMUL gates the assembly backend on the PCLMULQDQ feature flag
// (CPUID.01H:ECX bit 1). The pure-Go kernel remains the fallback on CPUs
// predating Westmere (2010) and under emulators that mask the flag.
var hasCLMUL = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<1) != 0
}()

// hasAVX512Filter gates filterAVX512Asm: AVX512F and AVX512VL
// (CPUID.07H:EBX bits 16, 31), VPCLMULQDQ (CPUID.07H:ECX bit 10), POPCNT
// and PCLMULQDQ (CPUID.01H:ECX bits 23, 1), and an operating system that
// saves the opmask and ZMM state (OSXSAVE, then XCR0 bits 1, 2 and 5–7).
var hasAVX512Filter = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const leaf1 = 1<<27 | 1<<23 | 1<<1 // OSXSAVE, POPCNT, PCLMULQDQ
	if maxLeaf < 7 || ecx1&leaf1 != leaf1 || xgetbv0()&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx512 = 1<<16 | 1<<31 // AVX512F, AVX512VL
	return ebx7&avx512 == avx512 && ecx7&(1<<10) != 0
}()

// filterBackends lists ClmulFilterBatch's backends in preference order.
var filterBackends = []filterBackend{
	{"avx512", hasAVX512Filter, clmulFilterAVX512},
	{"scalar", hasCLMUL, clmulFilterScalar},
	{"generic", true, clmulFilterGeneric},
}

// asmDiag returns the diagonal words the assembly loops take and whether
// they take the two-word path. That path multiplies by z·D, the diagonal
// moved up one place: with x moved up by 63−off its window is the
// product's second word, no 128-bit shift needed. D's coefficient 127,
// dropped by the move, only reaches coefficients past off+63.
func asmDiag(d0, d1 uint64, off uint, mask uint64) (uint64, uint64, bool) {
	if oneWord(off, mask) {
		return d0, d1, false
	}
	return d0 << 1, d1<<1 | d0>>63, true
}

// clmulFilterScalar runs the whole batch through the scalar loop.
func clmulFilterScalar(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int) int {
	d0, d1, two := asmDiag(d0, d1, off, mask)
	return filterScalarAsm(d0, d1, xs, off, mask, b, mx, ws, idx, 0, two)
}

// clmulFilterAVX512 runs the whole blocks of 8 through the vector loop and
// the tail of up to 7 elements through the scalar one.
func clmulFilterAVX512(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int) int {
	d0, d1, two := asmDiag(d0, d1, off, mask)
	nb := len(xs) &^ 7
	kept := 0
	if nb > 0 {
		kept = filterAVX512Asm(d0, d1, xs[:nb], off, mask, b, mx, ws, idx, two)
	}
	if nb < len(xs) {
		kept += filterScalarAsm(d0, d1, xs[nb:], off, mask, b, mx, ws[kept:], idx[kept:], nb, two)
	}
	return kept
}
