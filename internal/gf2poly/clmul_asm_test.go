package gf2poly

import (
	"math/rand/v2"
	"testing"
)

// adversarialOperands are the shapes that stress the generic kernel's
// overflow routing (full hole classes), the carry boundaries (single bits
// at the word edges), and the zero fast paths — reused here to pin the
// assembly backend against the generic anchor on exactly those inputs.
var adversarialOperands = []uint64{
	0, 1, 1 << 63, 0xFFFFFFFFFFFFFFFF,
	hole0, hole1, hole2, hole3,
	hole0 | hole1, hole2 | hole3, hole0 | hole3,
	0x8000000000000001, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA,
	0x0123456789ABCDEF, 0xFEDCBA9876543210,
}

// TestClmulAsmVsGeneric is the differential anchor for the hardware
// backend: every product the assembly produces must match the pure-Go
// kernel bit for bit, over the adversarial shapes and a random sweep.
func TestClmulAsmVsGeneric(t *testing.T) {
	if !HasAsm() {
		t.Skip("no hardware carry-less multiply on this CPU")
	}
	check := func(a, b uint64) {
		t.Helper()
		wantHi, wantLo := clmul64Generic(a, b)
		gotHi, gotLo := clmulAsm(a, b)
		if gotHi != wantHi || gotLo != wantLo {
			t.Fatalf("clmul(%#x, %#x): asm (%#x, %#x) != generic (%#x, %#x)",
				a, b, gotHi, gotLo, wantHi, wantLo)
		}
	}
	for _, a := range adversarialOperands {
		for _, b := range adversarialOperands {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewPCG(0xc1_14, 0x5e_ed))
	for i := 0; i < 200000; i++ {
		check(rng.Uint64(), rng.Uint64())
	}
	// Single-bit exhaustive: product must be exactly one bit at i+j.
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			hi, lo := clmulAsm(1<<uint(i), 1<<uint(j))
			var wantHi, wantLo uint64
			if k := i + j; k < 64 {
				wantLo = 1 << uint(k)
			} else {
				wantHi = 1 << uint(k-64)
			}
			if hi != wantHi || lo != wantLo {
				t.Fatalf("clmul(1<<%d, 1<<%d) = (%#x, %#x), want (%#x, %#x)",
					i, j, hi, lo, wantHi, wantLo)
			}
		}
	}
}

// TestClmulAccIntoAsmVsGeneric pins the slice kernel's assembly path
// against the generic path on random packed polynomials.
func TestClmulAccIntoAsmVsGeneric(t *testing.T) {
	if !HasAsm() {
		t.Skip("no hardware carry-less multiply on this CPU")
	}
	rng := rand.New(rand.NewPCG(0xacc, 0x5e_ed))
	for trial := 0; trial < 500; trial++ {
		la, lb := 1+rng.IntN(5), 1+rng.IntN(5)
		a := make([]uint64, la)
		b := make([]uint64, lb)
		for i := range a {
			a[i] = rng.Uint64()
		}
		for i := range b {
			b[i] = rng.Uint64()
		}
		asm := make([]uint64, la+lb)
		gen := make([]uint64, la+lb)
		ClmulAccInto(asm, a, b) // dispatches to asm (HasAsm checked above)
		genericAccInto(gen, a, b)
		for i := range asm {
			if asm[i] != gen[i] {
				t.Fatalf("trial %d: word %d: asm %#x != generic %#x", trial, i, asm[i], gen[i])
			}
		}
	}
}

// genericAccInto is ClmulAccInto's fallback loop, reproduced via the
// generic scalar kernel for the differential above.
func genericAccInto(dst, a, b []uint64) {
	for i, aw := range a {
		for j, bw := range b {
			hi, lo := clmul64Generic(aw, bw)
			dst[i+j] ^= lo
			dst[i+j+1] ^= hi
		}
	}
}

// windowLengths are the ClmulWindowBatch slice lengths the differentials
// sweep: empty, every short tail, and one long run.
var windowLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1024}

// TestClmulWindowAsmVsGeneric pins the batched window kernel's assembly
// against its pure-Go loop: adversarial diagonal words × every window
// offset × short and long slices, with the second diagonal word both zero
// (the one-multiply loop) and non-zero.
func TestClmulWindowAsmVsGeneric(t *testing.T) {
	if !HasAsm() {
		t.Skip("no hardware carry-less multiply on this CPU")
	}
	rng := rand.New(rand.NewPCG(0x3d0, 0x5e_ed))
	xs := make([]uint64, 1024)
	for i := range xs {
		if i < len(adversarialOperands) {
			xs[i] = adversarialOperands[i]
		} else {
			xs[i] = rng.Uint64()
		}
	}
	asm := make([]uint64, len(xs))
	gen := make([]uint64, len(xs))
	for i, d0 := range adversarialOperands {
		for _, d1 := range []uint64{0, adversarialOperands[(i+5)%len(adversarialOperands)] | 1} {
			for off := uint(0); off < 64; off++ {
				mask := ^uint64(0) >> (off % 61)
				b := rng.Uint64() & mask
				for _, n := range windowLengths {
					if n < len(asm) {
						asm[n] = 0xdead // must survive: the loop writes exactly n words
					}
					ClmulWindowBatch(d0, d1, xs[:n], off, mask, b, asm) // dispatches to asm
					clmulWindowGeneric(d0, d1, xs[:n], off, mask, b, gen)
					for k := 0; k < n; k++ {
						if asm[k] != gen[k] {
							t.Fatalf("d0=%#x d1=%#x off=%d len=%d: word %d asm %#x != generic %#x",
								d0, d1, off, n, k, asm[k], gen[k])
						}
					}
					if n < len(asm) && asm[n] != 0xdead {
						t.Fatalf("d0=%#x d1=%#x off=%d len=%d: asm wrote past the slice", d0, d1, off, n)
					}
				}
			}
		}
	}
}

var sinkClmul uint64

// BenchmarkClmulKernel carries its own in-run baseline: the asm dispatch
// (what Clmul64 callers get) against the pure-Go kernel on the same
// operand stream.
func BenchmarkClmulKernel(b *testing.B) {
	b.Run("dispatch", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			hi, lo := Clmul64(0x9e3779b97f4a7c15^uint64(i), 0xd1342543de82ef95+uint64(i))
			acc ^= hi ^ lo
		}
		sinkClmul = acc
	})
	b.Run("generic", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			hi, lo := clmul64Generic(0x9e3779b97f4a7c15^uint64(i), 0xd1342543de82ef95+uint64(i))
			acc ^= hi ^ lo
		}
		sinkClmul = acc
	})
	// The batched window kernel over one 1024-word slice per op, reported
	// per element: d1 = 0 is the one-multiply loop (a Bucketing prefix at
	// n = 32), d1 ≠ 0 the two-multiply loop (Minimum's 64-bit prefix at
	// n > 32).
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	dst := make([]uint64, len(xs))
	kernels := []struct {
		name string
		fn   func(d0, d1 uint64, xs []uint64, off uint, mask, b uint64, dst []uint64)
	}{{"asm", ClmulWindowBatch}, {"generic", clmulWindowGeneric}}
	for _, k := range kernels {
		for _, d1 := range []uint64{0, 0x2545f4914f6cdd1d} {
			name := "window/" + k.name + "/d1=0"
			if d1 != 0 {
				name = "window/" + k.name + "/d1≠0"
			}
			b.Run(name, func(b *testing.B) {
				if k.name == "asm" && !HasAsm() {
					b.Skip("no hardware carry-less multiply on this CPU")
				}
				for i := 0; i < b.N; i++ {
					k.fn(0xd1342543de82ef95, d1, xs, 31, 0xFFFFFFFF, 0x5bd1e995, dst)
				}
				sinkClmul = dst[len(dst)-1]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
			})
		}
	}
}

// HasAsm reports whether Clmul64 is dispatching to the hardware carry-less
// multiply backend (PCLMULQDQ on amd64, PMULL on arm64) rather than the
// pure-Go kernel; the asm-only checks skip when it is false.
func HasAsm() bool { return hasCLMUL }
