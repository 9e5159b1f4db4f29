//go:build !amd64 && !arm64

package gf2poly

// Architectures without an assembly backend always take the pure-Go kernel.
const hasCLMUL = false

// clmulAsm is never reached with hasCLMUL false; the definition only keeps
// the dispatch sites compiling on every architecture.
func clmulAsm(a, b uint64) (hi, lo uint64) { return clmul64Generic(a, b) }

// filterBackends has only the pure-Go loop.
var filterBackends = []filterBackend{{"generic", true, clmulFilterGeneric}}
