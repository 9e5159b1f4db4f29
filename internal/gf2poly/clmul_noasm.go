//go:build !amd64 && !arm64

package gf2poly

// Architectures without an assembly backend always take the pure-Go kernel.
const hasCLMUL = false

// clmulAsm is never reached with hasCLMUL false; the definition only keeps
// the dispatch sites compiling on every architecture.
func clmulAsm(a, b uint64) (hi, lo uint64) { return clmul64Generic(a, b) }

// clmulWindowAsm is never reached with hasCLMUL false either.
func clmulWindowAsm(d0, d1 uint64, xs []uint64, off uint, mask, b uint64, dst []uint64) {
	clmulWindowGeneric(d0, d1, xs, off, mask, b, dst)
}
