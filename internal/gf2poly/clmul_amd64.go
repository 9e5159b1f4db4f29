//go:build amd64

package gf2poly

// clmulAsm computes the 128-bit carry-less product of a and b with one
// PCLMULQDQ instruction (clmul_amd64.s). Callable only when hasCLMUL.
func clmulAsm(a, b uint64) (hi, lo uint64)

// clmulWindowAsm is ClmulWindowBatch's PCLMULQDQ loop (clmul_amd64.s).
// Callable only when hasCLMUL, with off < 64 and len(dst) ≥ len(xs) > 0.
//
//go:noescape
func clmulWindowAsm(d0, d1 uint64, xs []uint64, off uint, mask, b uint64, dst []uint64)

// cpuidECX1 returns ECX of CPUID leaf 1 (clmul_amd64.s). Leaf 1 is defined
// on every x86-64 CPU, so no max-leaf probe is needed.
func cpuidECX1() uint32

// hasCLMUL gates the assembly backend on the PCLMULQDQ feature flag
// (CPUID.01H:ECX bit 1). The pure-Go kernel remains the fallback on CPUs
// predating Westmere (2010) and under emulators that mask the flag.
var hasCLMUL = cpuidECX1()&(1<<1) != 0
