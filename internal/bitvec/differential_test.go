package bitvec

import (
	"fmt"
	"math"
	"testing"
)

// Differential tests: every word-parallel kernel is checked against a
// retained naive per-bit reference implementation (the seed's semantics) on
// randomized vectors, with widths that straddle 64-bit word boundaries.

// testWidths are the widths every differential case runs at; 63/64/65 and
// 127/128/129 straddle the one- and two-word boundaries.
var testWidths = []int{1, 2, 7, 31, 53, 63, 64, 65, 100, 127, 128, 129, 191, 192, 193, 320}

type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// testVectors produces a width-n sample set covering the adversarial shapes
// for scan kernels: all-zero, all-one, single bits at the ends and at word
// boundaries, long zero prefixes/suffixes, and random fills.
func testVectors(n int, rng *splitmix) []BitVec {
	var vs []BitVec
	vs = append(vs, New(n)) // all zero
	ones := New(n)
	for i := 0; i < n; i++ {
		ones.Set(i, true)
	}
	vs = append(vs, ones)
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1, 62, 63, 64, 65, 126, 127, 128} {
		if i < 0 || i >= n {
			continue
		}
		v := New(n)
		v.Set(i, true)
		vs = append(vs, v)
	}
	for k := 0; k < 8; k++ {
		vs = append(vs, Random(n, rng.next))
	}
	// Random with forced zero prefix and forced zero suffix.
	p := Random(n, rng.next)
	for i := 0; i < n/2; i++ {
		p.Set(i, false)
	}
	vs = append(vs, p)
	s := Random(n, rng.next)
	for i := n / 2; i < n; i++ {
		s.Set(i, false)
	}
	vs = append(vs, s)
	return vs
}

// --- naive reference implementations (per-bit, as in the seed) ---

func refCmp(b, o BitVec) int {
	for i := 0; i < b.Len(); i++ {
		x, y := b.Get(i), o.Get(i)
		if x != y {
			if y {
				return -1
			}
			return 1
		}
	}
	return 0
}

func refTrailingZeros(b BitVec) int {
	c := 0
	for i := b.Len() - 1; i >= 0; i-- {
		if b.Get(i) {
			return c
		}
		c++
	}
	return c
}

func refLeadingZeros(b BitVec) int {
	c := 0
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			return c
		}
		c++
	}
	return c
}

func refPrefix(b BitVec, m int) BitVec {
	p := New(m)
	for i := 0; i < m; i++ {
		if b.Get(i) {
			p.Set(i, true)
		}
	}
	return p
}

func refUint64(b BitVec) uint64 {
	var v uint64
	for i := 0; i < b.Len(); i++ {
		v <<= 1
		if b.Get(i) {
			v |= 1
		}
	}
	return v
}

func refFromUint64(v uint64, n int) BitVec {
	b := New(n)
	for i := 0; i < n; i++ {
		if v&(1<<(n-1-i)) != 0 {
			b.Set(i, true)
		}
	}
	return b
}

// refFraction reads the first 53 positions as a binary fraction or, when
// they are all zero, the 53 positions from the leading one.
func refFraction(b BitVec) float64 {
	start := 0
	if b.Len() > 53 {
		for start < b.Len() && !b.Get(start) {
			start++
		}
		if start < 53 {
			start = 0
		}
	}
	f, scale := 0.0, math.Ldexp(1, -(start+1))
	for i := start; i < min(b.Len(), start+53); i++ {
		if b.Get(i) {
			f += scale
		}
		scale /= 2
	}
	return f
}

func refString(b BitVec) string {
	buf := make([]byte, b.Len())
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

func refFirstSet(b BitVec) int {
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			return i
		}
	}
	return -1
}

func refWindow(b BitVec, off, m int) BitVec {
	w := New(m)
	for i := 0; i < m; i++ {
		if b.Get(off + i) {
			w.Set(i, true)
		}
	}
	return w
}

func TestDifferentialScanKernels(t *testing.T) {
	rng := &splitmix{state: 0xbeef}
	for _, n := range testWidths {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for vi, v := range testVectors(n, rng) {
				if got, want := v.TrailingZeros(), refTrailingZeros(v); got != want {
					t.Fatalf("vec %d: TrailingZeros = %d, want %d", vi, got, want)
				}
				if got, want := v.LeadingZeros(), refLeadingZeros(v); got != want {
					t.Fatalf("vec %d: LeadingZeros = %d, want %d", vi, got, want)
				}
				if got, want := v.FirstSet(), refFirstSet(v); got != want {
					t.Fatalf("vec %d: FirstSet = %d, want %d", vi, got, want)
				}
				for _, m := range []int{0, 1, n / 2, n - 1, n} {
					if m < 0 {
						continue
					}
					if got, want := v.Prefix(m), refPrefix(v, m); !got.Equal(want) {
						t.Fatalf("vec %d: Prefix(%d) = %v, want %v", vi, m, got, want)
					}
				}
				if got, want := v.Fraction(), refFraction(v); got != want {
					t.Fatalf("vec %d: Fraction = %v, want %v", vi, got, want)
				}
				if got, want := v.String(), refString(v); got != want {
					t.Fatalf("vec %d: String = %q, want %q", vi, got, want)
				}
			}
		})
	}
}

func TestDifferentialCmp(t *testing.T) {
	rng := &splitmix{state: 0xcafe}
	for _, n := range testWidths {
		vs := testVectors(n, rng)
		// Add near-identical pairs differing in exactly one position.
		for _, i := range []int{0, n / 2, n - 1, 63, 64, 127, 128} {
			if i < 0 || i >= n {
				continue
			}
			a := Random(n, rng.next)
			b := a.Clone()
			b.Flip(i)
			vs = append(vs, a, b)
		}
		for _, a := range vs {
			for _, b := range vs {
				if got, want := a.Cmp(b), refCmp(a, b); got != want {
					t.Fatalf("n=%d: Cmp(%v, %v) = %d, want %d", n, a, b, got, want)
				}
				if got, want := a.Less(b), refCmp(a, b) < 0; got != want {
					t.Fatalf("n=%d: Less(%v, %v) = %v, want %v", n, a, b, got, want)
				}
			}
		}
	}
}

func TestDifferentialUint64(t *testing.T) {
	rng := &splitmix{state: 0xd00d}
	for _, n := range []int{1, 2, 7, 31, 32, 33, 53, 63, 64} {
		for _, v := range testVectors(n, rng) {
			if got, want := v.Uint64(), refUint64(v); got != want {
				t.Fatalf("n=%d: Uint64(%v) = %d, want %d", n, v, got, want)
			}
		}
		for k := 0; k < 32; k++ {
			raw := rng.next()
			if n < 64 {
				raw &= (1 << uint(n)) - 1
			}
			got := FromUint64(raw, n)
			want := refFromUint64(raw, n)
			if !got.Equal(want) {
				t.Fatalf("n=%d: FromUint64(%d) = %v, want %v", n, raw, got, want)
			}
			if got.Uint64() != raw {
				t.Fatalf("n=%d: Uint64 round-trip of %d gave %d", n, raw, got.Uint64())
			}
			// SetUint64 must match FromUint64 and fully overwrite.
			s := Random(n, rng.next)
			s.SetUint64(raw)
			if !s.Equal(want) {
				t.Fatalf("n=%d: SetUint64(%d) = %v, want %v", n, raw, s, want)
			}
		}
	}
}

func TestDifferentialIntoVariants(t *testing.T) {
	rng := &splitmix{state: 0xfeed}
	for _, n := range testWidths {
		for k := 0; k < 16; k++ {
			a := Random(n, rng.next)
			b := Random(n, rng.next)
			want := a.Xor(b)
			dst := Random(n, rng.next) // stale contents must be overwritten
			a.XorInto(b, dst)
			if !dst.Equal(want) {
				t.Fatalf("n=%d: XorInto mismatch", n)
			}
			// Aliased destination.
			alias := a.Clone()
			alias.XorInto(b, alias)
			if !alias.Equal(want) {
				t.Fatalf("n=%d: aliased XorInto mismatch", n)
			}

			m := int(rng.next() % uint64(n+1))
			pdst := Random(m, rng.next)
			a.PrefixInto(pdst)
			if want := refPrefix(a, m); !pdst.Equal(want) {
				t.Fatalf("n=%d: PrefixInto(%d) mismatch", n, m)
			}

			cdst := Random(n, rng.next)
			cdst.CopyFrom(a)
			if !cdst.Equal(a) {
				t.Fatalf("n=%d: CopyFrom mismatch", n)
			}

			off := int(rng.next() % uint64(n))
			wlen := int(rng.next() % uint64(n-off+1))
			wdst := Random(wlen, rng.next)
			a.WindowInto(off, wdst)
			if want := refWindow(a, off, wlen); !wdst.Equal(want) {
				t.Fatalf("n=%d: WindowInto(%d, len %d) mismatch", n, off, wlen)
			}
		}
	}
}

func TestDifferentialFlip(t *testing.T) {
	rng := &splitmix{state: 0xf00d}
	for _, n := range testWidths {
		v := Random(n, rng.next)
		ref := v.Clone()
		for _, i := range []int{0, n - 1, n / 2, 63, 64, 127, 128} {
			if i < 0 || i >= n {
				continue
			}
			v.Flip(i)
			ref.Set(i, !ref.Get(i))
			if !v.Equal(ref) {
				t.Fatalf("n=%d: Flip(%d) mismatch", n, i)
			}
		}
	}
}

func TestFingerprintExactForNarrowWidths(t *testing.T) {
	rng := &splitmix{state: 0xace}
	// ≤ 128 bits: fingerprints must be exact, i.e. injective per width.
	for _, n := range []int{1, 63, 64, 65, 127, 128} {
		seen := map[Fingerprint]string{}
		vs := testVectors(n, rng)
		for _, i := range []int{0, n - 1} {
			v := New(n)
			if i >= 0 {
				v.Set(i, true)
			}
			vs = append(vs, v)
		}
		for _, v := range vs {
			fp := v.Fingerprint()
			if prev, ok := seen[fp]; ok && prev != v.String() {
				t.Fatalf("n=%d: fingerprint collision between %s and %s", n, prev, v.String())
			}
			seen[fp] = v.String()
			if fp != v.Clone().Fingerprint() {
				t.Fatalf("n=%d: fingerprint not deterministic", n)
			}
		}
	}
	// Distinct widths must never share a fingerprint (width is part of it).
	if New(63).Fingerprint() == New(64).Fingerprint() {
		t.Fatal("fingerprints of different widths compare equal")
	}
}

func TestFingerprintWideVectors(t *testing.T) {
	rng := &splitmix{state: 0xbead}
	// > 128 bits: digest path. Equal vectors agree; a large random sample
	// plus single-bit flips must not collide.
	for _, n := range []int{129, 192, 320} {
		seen := map[Fingerprint]string{}
		check := func(v BitVec) {
			fp := v.Fingerprint()
			if fp != v.Clone().Fingerprint() {
				t.Fatalf("n=%d: fingerprint of equal vectors differs", n)
			}
			if prev, ok := seen[fp]; ok && prev != v.String() {
				t.Fatalf("n=%d: fingerprint collision between %s and %s", n, prev, v.String())
			}
			seen[fp] = v.String()
		}
		base := Random(n, rng.next)
		check(base)
		for i := 0; i < n; i++ {
			v := base.Clone()
			v.Flip(i)
			check(v)
		}
		for k := 0; k < 512; k++ {
			check(Random(n, rng.next))
		}
	}
}

func TestSlabVectorsIndependent(t *testing.T) {
	vs := NewSlab(65, 4)
	if len(vs) != 4 {
		t.Fatalf("slab size %d, want 4", len(vs))
	}
	for i, v := range vs {
		if v.Len() != 65 || !v.IsZero() {
			t.Fatalf("slab vector %d not zero width-65", i)
		}
	}
	vs[1].Set(64, true)
	for i, v := range vs {
		if i != 1 && !v.IsZero() {
			t.Fatalf("write to slab vector 1 leaked into vector %d", i)
		}
	}
	if !vs[1].Get(64) {
		t.Fatal("slab vector write lost")
	}
	// Appending to one vector's words (via Clone growth paths) must not be
	// possible: capacities are clipped per row.
	if cap(vs[0].Words()) != len(vs[0].Words()) {
		t.Fatal("slab rows must have clipped capacity")
	}
}

func TestFractionMatchesLexOrder(t *testing.T) {
	rng := &splitmix{state: 0x50de}
	n := 53
	var prev *BitVec
	_ = prev
	vs := testVectors(n, rng)
	for i := 0; i < len(vs); i++ {
		for j := 0; j < len(vs); j++ {
			a, b := vs[i], vs[j]
			if a.Less(b) && a.Fraction() > b.Fraction() {
				t.Fatalf("lex order and fraction order disagree: %v vs %v", a, b)
			}
		}
	}
	if got := New(0).Fraction(); got != 0 || math.IsNaN(got) {
		t.Fatalf("zero-width fraction = %v", got)
	}
}
