package gf2poly

import (
	"fmt"
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

// filterLengths are the ClmulFilterBatch slice lengths the differentials
// sweep: empty, short tails on both sides of one 8-element block, and
// long runs with and without a tail.
var filterLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 1023, 1024, 1031}

// availableFilters returns the backends this CPU can run, logging the
// ones it skips.
func availableFilters(t *testing.T) []filterBackend {
	t.Helper()
	var out []filterBackend
	for _, be := range filterBackends {
		if !be.ok {
			t.Logf("skipping the %s backend: this CPU lacks its features", be.name)
			continue
		}
		out = append(out, be)
	}
	return out
}

// runFilter calls one backend the way ClmulFilterBatch does (it skips
// empty batches) and checks it wrote nothing past the batch.
func runFilter(t *testing.T, fn filterFunc, d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64) ([]uint64, []int) {
	t.Helper()
	ws := make([]uint64, len(xs)+1)
	idx := make([]int, len(xs)+1)
	ws[len(xs)], idx[len(xs)] = 0xdead, -7
	kept := 0
	if len(xs) > 0 {
		kept = fn(d0, d1, xs, off, mask, b, mx, ws[:len(xs)], idx[:len(xs)])
	}
	if ws[len(xs)] != 0xdead || idx[len(xs)] != -7 {
		t.Fatalf("d0=%#x d1=%#x off=%d len=%d: backend wrote past the batch", d0, d1, off, len(xs))
	}
	return ws[:kept], idx[:kept]
}

// requireSameFilter fails unless two backends kept the same words at
// the same indices.
func requireSameFilter(t *testing.T, what string, gotW []uint64, gotI []int, wantW []uint64, wantI []int) {
	t.Helper()
	if len(gotW) != len(wantW) {
		t.Fatalf("%s: kept %d, want %d", what, len(gotW), len(wantW))
	}
	for j := range wantW {
		if gotW[j] != wantW[j] || gotI[j] != wantI[j] {
			t.Fatalf("%s: kept entry %d = (%#x, %d), want (%#x, %d)", what, j, gotW[j], gotI[j], wantW[j], wantI[j])
		}
	}
}

// TestClmulFilterBackendsVsGeneric pins every available filter backend
// against the pure-Go loop: adversarial diagonal words × every window
// offset × short and long slices, with the second diagonal word both
// zero and non-zero, at an all-ones, a zero and a random bound. Elements
// are cut to off+1 bits, as ClmulFilterBatch requires.
func TestClmulFilterBackendsVsGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3d0, 0x5e_ed))
	xs := make([]uint64, 1031)
	for i := range xs {
		if i < len(adversarialOperands) {
			xs[i] = adversarialOperands[i]
		} else {
			xs[i] = rng.Uint64()
		}
	}
	cut := make([]uint64, len(xs))
	for _, be := range availableFilters(t) {
		for i, d0 := range adversarialOperands {
			for _, d1 := range []uint64{0, adversarialOperands[(i+5)%len(adversarialOperands)] | 1} {
				for off := uint(0); off < 64; off++ {
					for k, x := range xs {
						cut[k] = x & (^uint64(0) >> (63 - off))
					}
					mask := ^uint64(0) >> (off % 61)
					b := rng.Uint64() & mask
					for _, mx := range []uint64{^uint64(0), 0, rng.Uint64()} {
						for _, n := range filterLengths {
							if n > 64 && off%16 != 0 {
								continue // long runs at four offsets are enough
							}
							gw, gi := runFilter(t, be.fn, d0, d1, cut[:n], off, mask, b, mx)
							ww, wi := runFilter(t, clmulFilterGeneric, d0, d1, cut[:n], off, mask, b, mx)
							requireSameFilter(t, fmt.Sprintf("%s d0=%#x d1=%#x off=%d mx=%#x len=%d",
								be.name, d0, d1, off, mx, n), gw, gi, ww, wi)
						}
					}
				}
			}
		}
	}
}

// minPrefixWidth is the prefix Minimum's word path compares at universe
// width n (streaming.minPrefixBits): 65−n bits, capped at 3n, for
// n ≤ 32, and 64 above.
func minPrefixWidth(n int) int {
	if n > 32 {
		return 64
	}
	return min(3*n, 65-n)
}

// TestClmulFilterToeplitzShapes runs every available backend on the
// batches the F0 sketches hand it — Toeplitz prefixes of mp = n
// (Bucketing) and Minimum's width, at n ∈ {1, 5, 31, 32, 33, 48, 63,
// 64} — against the pure-Go loop and against the unfused path: every
// window word first (refWindow), then the bound test in Go. Bounds are
// all-ones (a filling Minimum, the counting pool), zero, Bucketing's
// level masks and random words. Every shape with n+mp ≥ 66 is also run on
// a draw whose second diagonal word is zero: its window still reads the
// high word of d0·x, which a path keyed on d1 == 0 would drop.
func TestClmulFilterToeplitzShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x7e0, 0x5e_ed))
	backends := availableFilters(t)
	lengths := []int{0, 1, 7, 8, 9, 1023, 1024, 1031}
	for _, n := range []int{1, 5, 31, 32, 33, 48, 63, 64} {
		xs := make([]uint64, 1031)
		for i := range xs {
			xs[i] = rng.Uint64() >> (64 - uint(n)) // packed n-bit elements
		}
		for _, mp := range []int{n, minPrefixWidth(n)} {
			diagBits := mp + n - 1
			d0 := rng.Uint64()
			d1 := rng.Uint64()
			if diagBits <= 64 {
				d1 = 0
			}
			draws := [][2]uint64{{d0, d1}}
			if n+mp >= 66 {
				draws = append(draws, [2]uint64{d0 | 1<<63, 0})
			}
			mask := ^uint64(0) >> (64 - uint(mp))
			b := rng.Uint64() & mask
			bounds := []uint64{^uint64(0), 0, rng.Uint64() & mask}
			for level := 1; level <= mp; level += 1 + level/4 {
				bounds = append(bounds, ^(uint64(1)<<uint(level)-1)&mask)
			}
			off := uint(n - 1)
			for _, dr := range draws {
				for _, mx := range bounds {
					for _, l := range lengths {
						what := fmt.Sprintf("n=%d mp=%d d=(%#x, %#x) mx=%#x len=%d", n, mp, dr[0], dr[1], mx, l)
						var refW []uint64
						var refI []int
						for k, x := range xs[:l] {
							if w := refWindow(dr[0], dr[1], x, off, mask, b); keep(w, mx) {
								refW, refI = append(refW, w), append(refI, k)
							}
						}
						gw, gi := runFilter(t, clmulFilterGeneric, dr[0], dr[1], xs[:l], off, mask, b, mx)
						requireSameFilter(t, "generic "+what, gw, gi, refW, refI)
						for _, be := range backends {
							bw, bi := runFilter(t, be.fn, dr[0], dr[1], xs[:l], off, mask, b, mx)
							requireSameFilter(t, be.name+" "+what, bw, bi, refW, refI)
						}
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
	// The fused filter kernel over one 1024-word slice per op, reported
	// per element, for every backend this CPU runs: one-word is a
	// Bucketing prefix at n = 32 (window inside the product's low word),
	// two-word Minimum's 64-bit prefix at n = 48. The bound is a level-8
	// mask, so about one element in 256 is kept: f0d's add benchmark
	// (BenchmarkAddHandler, 32-bit Zipf elements) keeps 0.4% in
	// Bucketing and 0.6% in Minimum.
	xs := make([]uint64, 1024)
	ws := make([]uint64, len(xs))
	idx := make([]int, len(xs))
	shapes := []struct {
		name      string
		d1        uint64
		off       uint
		mask, low uint64
	}{
		{"one-word", 0, 31, 0xFFFFFFFF, 0xFF},
		{"two-word", 0x2545f4914f6cdd1d, 47, ^uint64(0), 0xFF},
	}
	for _, be := range filterBackends {
		for _, sh := range shapes {
			b.Run("filter/"+be.name+"/"+sh.name, func(b *testing.B) {
				if !be.ok {
					b.Skip("this CPU lacks the backend's features")
				}
				for i := range xs {
					xs[i] = 0x9e3779b97f4a7c15 * uint64(i+1) >> (63 - sh.off)
				}
				kept := 0
				for i := 0; i < b.N; i++ {
					kept = be.fn(0xd1342543de82ef95, sh.d1, xs, sh.off, sh.mask, 0x5bd1e995&sh.mask, ^sh.low, ws, idx)
				}
				sinkClmul = uint64(kept)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
				b.ReportMetric(float64(kept)/float64(len(xs)), "kept/elem")
			})
		}
	}
}

// HasAsm reports whether Clmul64 is dispatching to the hardware carry-less
// multiply backend (PCLMULQDQ on amd64, PMULL on arm64) rather than the
// pure-Go kernel; the asm-only checks skip when it is false.
func HasAsm() bool { return hasCLMUL }
