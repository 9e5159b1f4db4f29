//go:build arm64

package gf2poly

import (
	"encoding/binary"
	"os"
	"runtime"
)

// clmulAsm computes the 128-bit carry-less product of a and b with one
// PMULL instruction (clmul_arm64.s). Callable only when hasCLMUL.
func clmulAsm(a, b uint64) (hi, lo uint64)

// filterBackends lists ClmulFilterBatch's backends in preference order.
var filterBackends = []filterBackend{
	{"pmull", hasCLMUL, clmulFilterPMULL},
	{"generic", true, clmulFilterGeneric},
}

// clmulFilterPMULL is ClmulFilterBatch over one PMULL call per product,
// with the generic loop's filter. A fused PMULL loop in assembly is not
// shipped: no arm64 host has run one.
func clmulFilterPMULL(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int) int {
	kept := 0
	for k, x := range xs {
		p1, p0 := clmulAsm(d0, x)
		if d1 != 0 {
			_, l := clmulAsm(d1, x)
			p1 ^= l
		}
		w := (p0>>off|p1<<(64-off))&mask ^ b
		if keep(w, mx) {
			ws[kept], idx[kept] = w, k
			kept++
		}
	}
	return kept
}

// hasCLMUL gates the assembly backend on the PMULL (polynomial multiply
// long) crypto extension, which is optional in ARMv8-A. The pure-Go kernel
// remains the fallback where the extension is absent or undetectable.
var hasCLMUL = detectPMULL()

func detectPMULL() bool {
	switch runtime.GOOS {
	case "darwin", "ios":
		// Every Apple Silicon core ships the crypto extensions.
		return true
	case "linux", "android":
		return linuxHWCAPHasPMULL()
	}
	return false
}

// linuxHWCAPHasPMULL reads the PMULL bit of AT_HWCAP from the process
// auxiliary vector. The repository carries no external dependencies
// (golang.org/x/sys/cpu would do this for us), so the auxv — pairs of
// little-endian (tag, value) uint64s — is parsed directly; any read or
// parse failure conservatively disables the backend.
func linuxHWCAPHasPMULL() bool {
	const (
		atHWCAP    = 16     // AT_HWCAP auxv tag
		hwcapPMULL = 1 << 4 // HWCAP_PMULL
	)
	buf, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return false
	}
	for i := 0; i+16 <= len(buf); i += 16 {
		if binary.LittleEndian.Uint64(buf[i:]) == atHWCAP {
			return binary.LittleEndian.Uint64(buf[i+8:])&hwcapPMULL != 0
		}
	}
	return false
}
