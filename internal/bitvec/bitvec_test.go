package bitvec

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromUint64RoundTrip(t *testing.T) {
	cases := []struct {
		v uint64
		n int
	}{
		{0, 1}, {1, 1}, {0, 8}, {255, 8}, {0xa5, 8}, {1 << 40, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		b := FromUint64(c.v, c.n)
		if got := b.Uint64(); got != c.v {
			t.Errorf("FromUint64(%d,%d).Uint64() = %d", c.v, c.n, got)
		}
		if b.Len() != c.n {
			t.Errorf("width = %d, want %d", b.Len(), c.n)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "0", "1", "0101", "111000111", "0000000000000000000000000000000000000000000000000000000000000000001"} {
		if got := FromString(s).String(); got != s {
			t.Errorf("FromString(%q).String() = %q", s, got)
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		b.Set(i, true)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Flip(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Flip", i)
		}
	}
}

func TestCmpMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(100)
		a := Random(n, rng.Uint64)
		b := Random(n, rng.Uint64)
		want := 0
		as, bs := a.String(), b.String()
		if as < bs {
			want = -1
		} else if as > bs {
			want = 1
		}
		if got := a.Cmp(b); got != want {
			t.Fatalf("Cmp(%s,%s) = %d, want %d", as, bs, got, want)
		}
	}
}

func TestTrailingLeadingZeros(t *testing.T) {
	cases := []struct {
		s           string
		trail, lead int
	}{
		{"0000", 4, 4},
		{"1000", 3, 0},
		{"0001", 0, 3},
		{"0100", 2, 1},
		{"1", 0, 0},
	}
	for _, c := range cases {
		b := FromString(c.s)
		if got := b.TrailingZeros(); got != c.trail {
			t.Errorf("%q TrailingZeros = %d, want %d", c.s, got, c.trail)
		}
		if got := b.LeadingZeros(); got != c.lead {
			t.Errorf("%q LeadingZeros = %d, want %d", c.s, got, c.lead)
		}
	}
}

func TestXorProperties(t *testing.T) {
	f := func(av, bv uint64) bool {
		a := FromUint64(av, 64)
		b := FromUint64(bv, 64)
		x := a.Xor(b)
		// XOR must be involutive and match uint64 semantics.
		return x.Uint64() == av^bv && x.Xor(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotBilinear(t *testing.T) {
	f := func(av, bv, cv uint64) bool {
		a := FromUint64(av, 64)
		b := FromUint64(bv, 64)
		c := FromUint64(cv, 64)
		// <a+b, c> == <a,c> xor <b,c>
		return a.Xor(b).Dot(c) == (a.Dot(c) != b.Dot(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPopCount(t *testing.T) {
	f := func(av uint64) bool {
		a := FromUint64(av, 64)
		pc := 0
		for v := av; v != 0; v &= v - 1 {
			pc++
		}
		return a.PopCount() == pc && a.IsZero() == (av == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomMasksExcessBits(t *testing.T) {
	// Random must not leave stray bits beyond width n; otherwise Equal and
	// Fingerprint would distinguish logically equal vectors.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(130)
		a := Random(n, rng.Uint64)
		b := FromString(a.String())
		if !a.Equal(b) || a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("Random(%d) left excess bits: %s", n, a)
		}
	}
}

func TestPrefix(t *testing.T) {
	b := FromString("1011001")
	for m := 0; m <= 7; m++ {
		if got, want := b.Prefix(m).String(), "1011001"[:m]; got != want {
			t.Errorf("Prefix(%d) = %q, want %q", m, got, want)
		}
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	b := New(4)
	mustPanic("Get out of range", func() { b.Get(4) })
	mustPanic("Set negative", func() { b.Set(-1, true) })
	mustPanic("width mismatch", func() { b.XorInPlace(New(5)) })
	mustPanic("FromUint64 too wide", func() { FromUint64(0, 65) })
	mustPanic("bad string", func() { FromString("01x") })
	mustPanic("prefix too long", func() { b.Prefix(5) })
}

// Cmp compares b and o lexicographically as bit strings (position 0 first).
// It returns -1, 0, or +1. Widths must match.
//
// The first differing string position is the lowest differing bit index, so
// one XOR and a trailing-zeros count decide each word.
func (b BitVec) Cmp(o BitVec) int {
	if b.n != o.n {
		panic("bitvec: width mismatch")
	}
	bw := b.words
	ow := o.words[:len(bw)]
	for i := range bw {
		if d := bw[i] ^ ow[i]; d != 0 {
			if ow[i]&(d&-d) != 0 {
				return -1 // o has the 1 at the first differing position
			}
			return 1
		}
	}
	return 0
}

// LeadingZeros returns the number of consecutive zero bits at position 0
// onward, i.e. the length of the all-zero prefix.
func (b BitVec) LeadingZeros() int {
	for i, w := range b.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return b.n
}

// XorInto writes b XOR o into dst without allocating. All three vectors
// must share one width; dst may alias b or o.
func (b BitVec) XorInto(o, dst BitVec) {
	if b.n != o.n || b.n != dst.n {
		panic("bitvec: width mismatch")
	}
	dw := dst.words
	bw := b.words[:len(dw)]
	ow := o.words[:len(dw)]
	for i := range dw {
		dw[i] = bw[i] ^ ow[i]
	}
}

// A vector whose first 53 positions are zero reads its fraction from the
// leading one, so it is never 0 (the k-minimum-values estimator divides
// by it) and stays below every vector with a one among the first 53.
func TestFractionPastFirst53Bits(t *testing.T) {
	v := New(180)
	v.Set(70, true)
	if got, want := v.Fraction(), math.Ldexp(1, -71); got != want {
		t.Fatalf("one at position 70 of 180: Fraction = %v, want 2^-71 = %v", got, want)
	}
	v.Set(122, true) // 52 positions after the leading one: still read
	v.Set(123, true) // 53 after: past the window, truncated
	if got, want := v.Fraction(), math.Ldexp(1, -71)+math.Ldexp(1, -123); got != want {
		t.Fatalf("ones at 70, 122, 123: Fraction = %v, want %v", got, want)
	}
	w := New(180)
	w.Set(52, true)
	if !(v.Fraction() < w.Fraction()) || w.Fraction() != math.Ldexp(1, -53) {
		t.Fatalf("one at 52 reads %v, want 2^-53 above %v", w.Fraction(), v.Fraction())
	}
	if got := New(180).Fraction(); got != 0 {
		t.Fatalf("zero vector: Fraction = %v, want 0", got)
	}
}
