package gf2poly

import "testing"

// refClmul64 is the obviously-correct shift-and-xor reference.
func refClmul64(a, b uint64) (hi, lo uint64) {
	for i := 0; i < 64; i++ {
		if a&(1<<uint(i)) == 0 {
			continue
		}
		lo ^= b << uint(i)
		if i > 0 {
			hi ^= b >> uint(64-i)
		}
	}
	return
}

// xorshift is a tiny deterministic generator for test inputs.
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

func TestClmul64MatchesReference(t *testing.T) {
	check := func(a, b uint64) {
		t.Helper()
		wantHi, wantLo := refClmul64(a, b)
		gotHi, gotLo := Clmul64(a, b)
		if gotHi != wantHi || gotLo != wantLo {
			t.Fatalf("Clmul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				a, b, gotHi, gotLo, wantHi, wantLo)
		}
	}
	// Adversarial shapes: the full-residue-class operands that force the
	// split fallback (all-ones, single full hole classes, combinations),
	// and near-misses that must stay on the fast path.
	specials := []uint64{
		0, 1, 2, 3, ^uint64(0),
		hole0, hole1, hole2, hole3,
		hole0 | hole1, hole0 | hole3, hole1 | hole2, ^hole0, ^hole3,
		hole0 &^ 1, hole3 &^ (1 << 63), // one bit shy of a full class
		1 << 63, 1<<63 | 1, 0x8000000000000001,
		0xFFFFFFFF, 0xFFFFFFFF00000000, 0xAAAAAAAAAAAAAAAA, 0x5555555555555555,
	}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b)
		}
	}
	// Single-bit products hit every output position, including the
	// degree-126 corner (both top bits set).
	for i := 0; i < 64; i += 7 {
		for j := 0; j < 64; j += 5 {
			check(1<<uint(i), 1<<uint(j))
		}
	}
	check(1<<63, 1<<63)
	// Random sweep.
	rng := xorshift(0x9e3779b97f4a7c15)
	for k := 0; k < 20000; k++ {
		check(rng.next(), rng.next())
	}
	// Random values with full classes planted, to exercise the guard from
	// both sides.
	for k := 0; k < 2000; k++ {
		check(rng.next()|hole1, rng.next()|hole2)
		check(rng.next()|hole0, rng.next())
	}
}

// refMulSlices is the word-slice reference product built on refClmul64.
func refMulSlices(a, b []uint64) []uint64 {
	out := make([]uint64, len(a)+len(b))
	for i, aw := range a {
		for j, bw := range b {
			hi, lo := refClmul64(aw, bw)
			out[i+j] ^= lo
			out[i+j+1] ^= hi
		}
	}
	return out
}

func TestClmulAccIntoMatchesReference(t *testing.T) {
	rng := xorshift(42)
	for la := 1; la <= 5; la++ {
		for lb := 1; lb <= 5; lb++ {
			for rep := 0; rep < 50; rep++ {
				a := make([]uint64, la)
				b := make([]uint64, lb)
				for i := range a {
					a[i] = rng.next()
				}
				for i := range b {
					b[i] = rng.next()
				}
				if rep%7 == 0 {
					a[rng.next()%uint64(la)] = ^uint64(0) // force split path
					b[rng.next()%uint64(lb)] = ^uint64(0)
				}
				if rep%11 == 0 {
					a[rng.next()%uint64(la)] = 0 // exercise the zero-word skip
				}
				want := refMulSlices(a, b)
				got := make([]uint64, la+lb+1) // one spare word: must stay 0
				ClmulAccInto(got, a, b)
				for i, w := range want {
					if got[i] != w {
						t.Fatalf("la=%d lb=%d word %d: got %#x want %#x", la, lb, i, got[i], w)
					}
				}
				if got[la+lb] != 0 {
					t.Fatalf("la=%d lb=%d: wrote past len(a)+len(b)", la, lb)
				}
				// Accumulation: a second call must XOR to zero.
				ClmulAccInto(got, a, b)
				for i, w := range got[:la+lb] {
					if w != 0 {
						t.Fatalf("la=%d lb=%d: accumulate word %d = %#x, want 0", la, lb, i, w)
					}
				}
			}
		}
	}
}

func TestClmulAccIntoShortDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short destination")
		}
	}()
	ClmulAccInto(make([]uint64, 2), make([]uint64, 2), make([]uint64, 1))
}

// TestClmulCommutesAndDistributes cross-checks algebraic identities the
// kernel must satisfy regardless of internal path taken.
func TestClmulCommutesAndDistributes(t *testing.T) {
	rng := xorshift(7)
	for k := 0; k < 5000; k++ {
		a, b, c := rng.next(), rng.next(), rng.next()
		abHi, abLo := Clmul64(a, b)
		baHi, baLo := Clmul64(b, a)
		if abHi != baHi || abLo != baLo {
			t.Fatalf("commutativity failed for %#x, %#x", a, b)
		}
		// a·(b⊕c) = a·b ⊕ a·c
		sHi, sLo := Clmul64(a, b^c)
		acHi, acLo := Clmul64(a, c)
		if sHi != abHi^acHi || sLo != abLo^acLo {
			t.Fatalf("distributivity failed for %#x, %#x, %#x", a, b, c)
		}
	}
}

var sinkU64 uint64

func BenchmarkClmul64(b *testing.B) {
	rng := xorshift(1)
	x, y := rng.next(), rng.next()
	for i := 0; i < b.N; i++ {
		hi, lo := Clmul64(x, y)
		sinkU64 += hi ^ lo
		x++
	}
}

func BenchmarkClmulAccInto(b *testing.B) {
	rng := xorshift(2)
	a := make([]uint64, 4)
	c := make([]uint64, 4)
	dst := make([]uint64, 8)
	for i := range a {
		a[i] = rng.next()
		c[i] = rng.next()
	}
	b.Run("4x4words", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ClmulAccInto(dst, a, c)
		}
	})
}

// refWindow is ClmulFilterBatch's window word spelt out with the
// shift-and-xor reference product: the word the unfused path wrote for
// every element before any test.
func refWindow(d0, d1, x uint64, off uint, mask, b uint64) uint64 {
	h0, l0 := refClmul64(d0, x)
	_, l1 := refClmul64(d1, x)
	p0, p1 := l0, h0^l1
	w := p0 >> off
	if off > 0 {
		w |= p1 << (64 - off)
	}
	return w&mask ^ b
}

// refKeep is the bound test spelt out bit by bit: scan from bit 0 to the
// first bit where w and mx differ, and keep w when that bit is mx's.
func refKeep(w, mx uint64) bool {
	for i := uint(0); i < 64; i++ {
		if (w^mx)>>i&1 != 0 {
			return mx>>i&1 == 1
		}
	}
	return true
}

// TestClmulFilterBatchMatchesReference checks the dispatched batch kernel
// and its pure-Go loop against the reference product and the bit-by-bit
// bound test, including the full-hole-class operands that route the
// generic loop to its split form (cut, like every element, to off+1
// bits), and all-ones and zero bounds.
func TestClmulFilterBatchMatchesReference(t *testing.T) {
	s := xorshift(0x77d0)
	ops := []uint64{0, 1, 1 << 63, ^uint64(0), hole0, hole1 | hole2, hole3, 0x0123456789ABCDEF}
	xs := make([]uint64, 40)
	for i := range xs {
		if i < len(ops) {
			xs[i] = ops[i]
		} else {
			xs[i] = s.next()
		}
	}
	ws, idx := make([]uint64, len(xs)), make([]int, len(xs))
	gws, gidx := make([]uint64, len(xs)), make([]int, len(xs))
	all := xs
	xs = make([]uint64, len(all))
	for trial := 0; trial < 400; trial++ {
		d0, d1 := s.next(), s.next()
		if trial < len(ops)*len(ops) {
			d0, d1 = ops[trial%len(ops)], ops[trial/len(ops)]
		}
		off := uint(trial % 64)
		for k, x := range all {
			xs[k] = x & (^uint64(0) >> (63 - off)) // elements of off+1 bits
		}
		mask, b := s.next(), s.next()
		mx := []uint64{^uint64(0), 0, s.next(), s.next() & mask}[trial%4]
		kept := ClmulFilterBatch(d0, d1, xs, off, mask, b, mx, ws, idx)
		gkept := clmulFilterGeneric(d0, d1, xs, off, mask, b, mx, gws, gidx)
		j := 0
		for k, x := range xs {
			w := refWindow(d0, d1, x, off, mask, b)
			if !refKeep(w, mx) {
				continue
			}
			if j >= kept || j >= gkept || ws[j] != w || idx[j] != k || gws[j] != w || gidx[j] != k {
				t.Fatalf("trial %d (d0=%#x d1=%#x off=%d mx=%#x): kept entry %d should be (%#x, %d)",
					trial, d0, d1, off, mx, j, w, k)
			}
			j++
		}
		if kept != j || gkept != j {
			t.Fatalf("trial %d: dispatch kept %d, generic %d, want %d", trial, kept, gkept, j)
		}
		if mx == ^uint64(0) && j != len(xs) {
			t.Fatalf("trial %d: an all-ones bound kept %d of %d", trial, j, len(xs))
		}
	}
}

// TestClmulFilterBatchPanics checks the argument checks: an offset past
// the first product word and outputs shorter than the batch.
func TestClmulFilterBatchPanics(t *testing.T) {
	xs := make([]uint64, 4)
	for name, call := range map[string]func(){
		"off=64":    func() { ClmulFilterBatch(1, 0, xs, 64, 1, 0, 0, make([]uint64, 4), make([]int, 4)) },
		"short ws":  func() { ClmulFilterBatch(1, 0, xs, 0, 1, 0, 0, make([]uint64, 3), make([]int, 4)) },
		"short idx": func() { ClmulFilterBatch(1, 0, xs, 0, 1, 0, 0, make([]uint64, 4), make([]int, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
