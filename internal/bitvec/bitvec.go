// Package bitvec implements fixed-width bit vectors over GF(2).
//
// A BitVec represents an element of {0,1}^n. Bit 0 is the most significant
// position: the paper's universe {0,1}^n orders strings lexicographically
// left-to-right, so bit index i corresponds to position i+1 of the string.
// Trailing zeros are counted from the least significant end (position n-1),
// matching the TrailZero procedure of the paper.
//
// Storage is little-endian within words: bit i lives at words[i/64], bit
// position i%64. Every operation maintains the invariant that the unused
// high bits of the last word are zero, which is what lets the kernels below
// run word-parallel (64 positions per machine operation) instead of
// bit-at-a-time.
//
// # Destination-passing variants and ownership
//
// The *Into methods (PrefixInto, WindowInto, CopyFrom, plus SetUint64 and
// FillRandom) write their result into a caller-owned vector instead of
// allocating a fresh one. The contract is:
//
//   - the destination must have been allocated by the caller with the
//     correct width (the methods panic on width mismatch, they never
//     resize);
//   - the destination must not alias the receiver or other operands unless
//     a method's doc comment explicitly allows it;
//   - the callee never retains the destination; after the call the caller
//     remains the unique owner and may reuse the vector for the next
//     iteration.
//
// Enumeration loops (hash evaluation, sketch updates, Gaussian elimination)
// use these to run allocation-free: allocate scratch once, then evaluate
// into it millions of times.
package bitvec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"mcf0/internal/stats"
)

// BitVec is a fixed-width vector of bits.
type BitVec struct {
	n     int
	words []uint64
}

const wordBits = 64

// New returns an all-zero bit vector of width n bits.
func New(n int) BitVec {
	if n < 0 {
		panic("bitvec: negative width")
	}
	return BitVec{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSlab returns count independent width-n vectors whose word storage is
// carved from a single allocation. The vectors behave exactly like New(n)
// results; the shared backing array only reduces allocator pressure when a
// caller needs many vectors at once (elimination rows).
func NewSlab(n, count int) []BitVec {
	if n < 0 || count < 0 {
		panic("bitvec: negative slab dimensions")
	}
	wpr := (n + wordBits - 1) / wordBits
	words := make([]uint64, wpr*count)
	vs := make([]BitVec, count)
	for i := range vs {
		vs[i] = BitVec{n: n, words: words[i*wpr : (i+1)*wpr : (i+1)*wpr]}
	}
	return vs
}

// View returns the n-bit vector whose storage is words, without copying:
// the vector aliases words, so writes through either are seen by the
// other, and writers must keep the excess high bits of the last word
// zero. Sketches keep their values as rows of one word slab and read a
// row through a View, which allocates nothing. It panics unless
// len(words) == ⌈n/64⌉.
func View(n int, words []uint64) BitVec {
	if n < 0 || len(words) != (n+wordBits-1)/wordBits {
		panic("bitvec: view width mismatch")
	}
	return BitVec{n: n, words: words}
}

// FromUint64 returns an n-bit vector whose string form is the n-bit binary
// representation of v (most significant bit first). n must be at most 64.
func FromUint64(v uint64, n int) BitVec {
	if n > 64 {
		panic("bitvec: FromUint64 width exceeds 64")
	}
	b := New(n)
	b.SetUint64(v)
	return b
}

// SetUint64 overwrites the vector (width ≤ 64) with the n-bit binary
// representation of v, most significant bit first — the in-place form of
// FromUint64. Bits of v at or above position n are ignored.
func (b BitVec) SetUint64(v uint64) {
	if b.n > 64 {
		panic("bitvec: SetUint64 width exceeds 64")
	}
	if b.n == 0 {
		return
	}
	// Vector bit i is bit n-1-i of v: reverse the low n bits into place.
	b.words[0] = bits.Reverse64(v << (wordBits - uint(b.n)))
}

// Uint64 returns the integer whose n-bit binary representation equals the
// vector (most significant bit first). Width must be at most 64.
func (b BitVec) Uint64() uint64 {
	if b.n > 64 {
		panic("bitvec: Uint64 width exceeds 64")
	}
	if b.n == 0 {
		return 0
	}
	return bits.Reverse64(b.words[0]) >> (wordBits - uint(b.n))
}

// FromString parses a string of '0' and '1' runes.
func FromString(s string) BitVec {
	b := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			b.Set(i, true)
		default:
			panic("bitvec: invalid character in bit string")
		}
	}
	return b
}

// Len returns the width in bits.
func (b BitVec) Len() int { return b.n }

// Get reports whether bit i is set.
func (b BitVec) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("bitvec: index out of range")
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to v.
func (b BitVec) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic("bitvec: index out of range")
	}
	if v {
		b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (b BitVec) Flip(i int) {
	if i < 0 || i >= b.n {
		panic("bitvec: index out of range")
	}
	b.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Clone returns an independent copy.
func (b BitVec) Clone() BitVec {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return BitVec{n: b.n, words: w}
}

// CopyFrom overwrites b with o. Widths must match.
func (b BitVec) CopyFrom(o BitVec) {
	if b.n != o.n {
		panic("bitvec: width mismatch")
	}
	copy(b.words, o.words)
}

// Words exposes the underlying word storage: bit i lives at Words()[i/64],
// bit position i%64, and the unused high bits of the last word are always
// zero. The slice aliases the vector — writes through it mutate the vector,
// and writers must preserve the excess-bit invariant. It exists for
// performance-critical kernels (GF(2) elimination); ordinary callers should
// stay on the method API.
func (b BitVec) Words() []uint64 { return b.words }

// XorInPlace sets b to b XOR o. Widths must match.
func (b BitVec) XorInPlace(o BitVec) {
	if b.n != o.n {
		panic("bitvec: width mismatch")
	}
	bw := b.words
	ow := o.words[:len(bw)]
	for i := range bw {
		bw[i] ^= ow[i]
	}
}

// Xor returns b XOR o as a fresh vector.
func (b BitVec) Xor(o BitVec) BitVec {
	r := b.Clone()
	r.XorInPlace(o)
	return r
}

// Dot returns the GF(2) inner product of b and o. Parity is additive mod
// 2, so the AND words are XOR-folded first and a single popcount finishes.
func (b BitVec) Dot(o BitVec) bool {
	if b.n != o.n {
		panic("bitvec: width mismatch")
	}
	var fold uint64
	bw := b.words
	ow := o.words[:len(bw)]
	for i := range bw {
		fold ^= bw[i] & ow[i]
	}
	return bits.OnesCount64(fold)&1 == 1
}

// PopCount returns the number of set bits.
func (b BitVec) PopCount() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsZero reports whether every bit is zero.
func (b BitVec) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o have the same width and bits.
func (b BitVec) Equal(o BitVec) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Less reports whether b precedes o lexicographically.
func (b BitVec) Less(o BitVec) bool {
	if b.n != o.n {
		panic("bitvec: width mismatch")
	}
	bw := b.words
	ow := o.words[:len(bw)]
	for i := range bw {
		if bw[i] != ow[i] {
			return WordLess(bw[i], ow[i])
		}
	}
	return false
}

// WordLess reports whether storage word a precedes word b in packed
// order, bit 0 first: the first bit where they differ, the lowest set bit
// of a^b, is b's. It is Less on one word, and the comparison every
// word-level caller (k-min rows, hash prefixes) uses.
func WordLess(a, b uint64) bool {
	d := a ^ b
	return b&(d&-d) != 0
}

// TrailingZeros returns the number of consecutive zero bits at the least
// significant (rightmost string) end. A zero vector has n trailing zeros.
func (b BitVec) TrailingZeros() int {
	if b.n == 0 {
		return 0
	}
	last := len(b.words) - 1
	c := 0
	// The last word holds positions [64·last, n); shift its window so the
	// highest position sits at bit 63, then leading zeros count string
	// trailing zeros.
	w := b.words[last]
	if rem := uint(b.n) % wordBits; rem != 0 {
		w <<= wordBits - rem
		if w != 0 {
			return bits.LeadingZeros64(w)
		}
		c = int(rem)
	} else {
		if w != 0 {
			return bits.LeadingZeros64(w)
		}
		c = wordBits
	}
	for i := last - 1; i >= 0; i-- {
		if w := b.words[i]; w != 0 {
			return c + bits.LeadingZeros64(w)
		}
		c += wordBits
	}
	return c
}

// FirstSet returns the index of the first set position (equivalently the
// length of the all-zero prefix when a bit is set), or -1 for the zero
// vector.
func (b BitVec) FirstSet() int {
	for i, w := range b.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Prefix returns the first m bits as a fresh m-bit vector.
func (b BitVec) Prefix(m int) BitVec {
	p := New(m)
	b.PrefixInto(p)
	return p
}

// PrefixInto copies the first dst.Len() bits of b into dst, which must be
// no wider than b.
func (b BitVec) PrefixInto(dst BitVec) {
	if dst.n > b.n {
		panic("bitvec: prefix longer than vector")
	}
	dw := dst.words
	copy(dw, b.words[:len(dw)])
	if rem := uint(dst.n) % wordBits; rem != 0 {
		dw[len(dw)-1] &= (1 << rem) - 1
	}
}

// WindowInto copies bits [off, off+dst.Len()) of b into dst — the
// word-parallel slice primitive behind Toeplitz row construction.
func (b BitVec) WindowInto(off int, dst BitVec) {
	if off < 0 || off+dst.n > b.n {
		panic("bitvec: window out of range")
	}
	if dst.n == 0 {
		return
	}
	sw := off / wordBits
	sh := uint(off) % wordBits
	bw := b.words
	dw := dst.words
	for i := range dw {
		w := bw[sw+i] >> sh
		if sh != 0 && sw+i+1 < len(bw) {
			w |= bw[sw+i+1] << (wordBits - sh)
		}
		dw[i] = w
	}
	if rem := uint(dst.n) % wordBits; rem != 0 {
		dw[len(dw)-1] &= (1 << rem) - 1
	}
}

// WindowFromWords copies bits [off, off+dst.Len()) of the packed
// little-endian word slice src (bit i lives at src[i/64], position i%64 —
// the Words layout) into dst. It is the destination-passing bridge from
// raw polynomial products (gf2poly.ClmulAccInto) back into bit-vector
// form; package hash uses it to slice the output window out of a Toeplitz
// carry-less multiply.
func WindowFromWords(src []uint64, off int, dst BitVec) {
	if off < 0 || off+dst.n > len(src)*wordBits {
		panic("bitvec: window out of range")
	}
	if dst.n == 0 {
		return
	}
	sw := off / wordBits
	sh := uint(off) % wordBits
	dw := dst.words
	for i := range dw {
		w := src[sw+i] >> sh
		if sh != 0 && sw+i+1 < len(src) {
			w |= src[sw+i+1] << (wordBits - sh)
		}
		dw[i] = w
	}
	if rem := uint(dst.n) % wordBits; rem != 0 {
		dw[len(dw)-1] &= (1 << rem) - 1
	}
}

// ReverseInto writes the bit-reversal of b into dst: dst bit t is b's bit
// n−1−t. Widths must match and dst must not alias b. The reversal is
// word-parallel: reverse the word order, bit-reverse each word, then shift
// out the padding that the last partial word introduced. Package hash uses
// this to turn a Toeplitz diagonal into the packed polynomial whose
// product with the input realizes A·x.
func (b BitVec) ReverseInto(dst BitVec) {
	if b.n != dst.n {
		panic("bitvec: width mismatch")
	}
	sw := b.words
	dw := dst.words
	for i, w := range sw {
		dw[len(sw)-1-i] = bits.Reverse64(w)
	}
	// The reversal of the zero-padded 64·W-bit string carries the true
	// n-bit reversal in its high bits; shift the padding out.
	if pad := uint(len(sw)*wordBits - b.n); pad != 0 {
		for i := 0; i < len(dw)-1; i++ {
			dw[i] = dw[i]>>pad | dw[i+1]<<(wordBits-pad)
		}
		dw[len(dw)-1] >>= pad
	}
}

// Reverse returns the bit-reversal of b as a fresh vector.
func (b BitVec) Reverse() BitVec {
	r := New(b.n)
	b.ReverseInto(r)
	return r
}

// String renders the vector as a bit string, position 0 first. Eight
// positions are rendered per step by spreading one byte of the word into
// eight '0'/'1' bytes with a mask-and-carry trick.
func (b BitVec) String() string {
	buf := make([]byte, b.n)
	pos := 0
	for _, w := range b.words {
		for s := 0; s < wordBits && pos < b.n; s += 8 {
			if b.n-pos >= 8 {
				binary.LittleEndian.PutUint64(buf[pos:pos+8], spreadBits(byte(w>>uint(s))))
				pos += 8
			} else {
				// Tail shorter than a byte: per-bit.
				for j := 0; pos < b.n; j++ {
					buf[pos] = '0' + byte((w>>uint(s+j))&1)
					pos++
				}
			}
		}
	}
	// buf is function-local and never written again: aliasing it as the
	// result string is safe and saves the copy string(buf) would make.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// spreadBits expands the 8 bits of v into 8 bytes, byte i = '0' + bit i.
func spreadBits(v byte) uint64 {
	x := uint64(v) * 0x0101010101010101 & 0x8040201008040201
	x = ((x + 0x7f7f7f7f7f7f7f7f) >> 7) & 0x0101010101010101
	return x + 0x3030303030303030
}

// Fraction interprets the vector (position 0 first) as a binary fraction
// in [0, 1), using the first 53 bits. Lexicographic order on vectors of
// equal width agrees with numeric order on fractions (up to the 53-bit
// truncation), which is what the k-minimum-values estimator needs. When
// those 53 bits are all zero, it reads the 53 bits from the leading one
// instead, scaled by that one's position, so a nonzero vector never reads
// 0 however many zeros lead it.
func (b BitVec) Fraction() float64 {
	limit := min(b.n, 53)
	if limit == 0 {
		return 0
	}
	// The first `limit` positions read MSB-first form an integer < 2^53,
	// exact in float64.
	if v := bits.Reverse64(b.words[0]) >> (wordBits - uint(limit)); v != 0 || b.n <= 53 {
		return math.Ldexp(float64(v), -limit)
	}
	p := b.FirstSet()
	if p < 0 {
		return 0
	}
	limit = min(b.n-p, 53)
	i, sh := p/wordBits, uint(p)%wordBits
	w := b.words[i] >> sh
	if sh != 0 && i+1 < len(b.words) {
		w |= b.words[i+1] << (wordBits - sh)
	}
	v := bits.Reverse64(w) >> (wordBits - uint(limit))
	return math.Ldexp(float64(v), -(p + limit))
}

// Fingerprint is a fixed-size comparable digest of a BitVec, usable
// directly as a map key with zero allocation per lookup. For widths up to
// 128 bits it is exact: two vectors of equal width have equal fingerprints
// iff they are equal. Beyond 128 bits the remaining words are folded in
// with a 128-bit mix, so distinct vectors collide with probability ~2^-128
// per pair — negligible against the (ε, δ) guarantees of every algorithm
// in this repository.
type Fingerprint struct {
	lo, hi uint64
	n      uint32
}

// Fingerprint digests the vector; see the Fingerprint type for the
// collision contract.
func (b BitVec) Fingerprint() Fingerprint {
	f := Fingerprint{n: uint32(b.n)}
	switch len(b.words) {
	case 0:
	case 1:
		f.lo = b.words[0]
	case 2:
		f.lo, f.hi = b.words[0], b.words[1]
	default:
		f.lo, f.hi = b.words[0], b.words[1]
		for _, w := range b.words[2:] {
			f.lo = stats.Mix64(f.lo ^ (w * 0x9e3779b97f4a7c15))
			f.hi = stats.Mix64(f.hi + bits.RotateLeft64(w, 31) + 0xd1342543de82ef95)
		}
	}
	return f
}

// Random fills an n-bit vector using next as the entropy source; next is
// called once per 64-bit word. Excess high bits of the last word are masked
// so that Equal and Key behave correctly.
func Random(n int, next func() uint64) BitVec {
	b := New(n)
	b.FillRandom(next)
	return b
}

// FillRandom overwrites b with random bits from next (one call per word),
// masking the excess bits of the last word — the in-place form of Random.
func (b BitVec) FillRandom(next func() uint64) {
	for i := range b.words {
		b.words[i] = next()
	}
	if rem := uint(b.n) % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}
