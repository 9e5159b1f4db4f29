// Carry-less multiplication kernel: the public primitive behind both the
// field arithmetic in this package and the word-parallel Toeplitz hash
// evaluation in package hash (h(x) = Ax+b for Toeplitz A is a GF(2)[x]
// polynomial multiply; see hash.Toeplitz).
//
// There are two dispatch points. Clmul64 is one product; ClmulFilterBatch
// hashes a whole slice of element words through one 64-bit window of a
// one- or two-word diagonal, keeps the words at or below a bound and
// compacts them — the per-copy batch form of a Toeplitz hash prefix with a
// sketch's threshold test. On amd64 with PCLMULQDQ both route to assembly
// (clmul_amd64.s: one instruction for Clmul64; for ClmulFilterBatch a
// scalar multiply-shift-mask-test loop, and with AVX-512 and VPCLMULQDQ a
// loop over blocks of 8 elements that compresses the kept lanes). On arm64
// with the PMULL crypto extension Clmul64 is one instruction
// (clmul_arm64.s) and ClmulFilterBatch a Go loop over it. The backends are
// gated by run-time CPU-feature detection in the clmul_*.go siblings.
// Everywhere else — and as the differential anchor the assembly is tested
// against — they run the pure-Go kernel below, built on bits.Mul64
// "holes" multiplies (integer products of operands whose set bits are
// spaced four apart, so column sums fit in the zero gaps and never carry
// into a kept position). The generic path
// deliberately avoids the classic bit-reversal trick for the high half —
// the whole 128-bit product comes out of one pass.
package gf2poly

import "math/bits"

// hole masks select every fourth bit. An operand masked by hole r has its
// set bits ≥ 4 positions apart, which is what makes the integer-multiply
// trick below exact: see clmulHoles.
const (
	hole0 uint64 = 0x1111111111111111
	hole1 uint64 = hole0 << 1
	hole2 uint64 = hole0 << 2
	hole3 uint64 = hole0 << 3
)

// Clmul64 returns the carry-less product of the polynomials a and b over
// GF(2): bit i of an operand is the coefficient of x^i, and the 127-bit
// product is returned as hi<<64 | lo. With hardware support detected
// (hasCLMUL) the product is a single PCLMULQDQ/PMULL instruction; the
// generic path costs 16 integer multiplies (see clmulHoles), independent
// of operand values.
func Clmul64(a, b uint64) (hi, lo uint64) {
	if hasCLMUL {
		return clmulAsm(a, b)
	}
	return clmul64Generic(a, b)
}

// clmul64Generic is the pure-Go kernel behind Clmul64 — always available,
// and kept as the differential anchor the assembly backends are verified
// against.
func clmul64Generic(a, b uint64) (hi, lo uint64) {
	a0, a1, a2, a3 := a&hole0, a&hole1, a&hole2, a&hole3
	if (a0 == hole0 || a1 == hole1 || a2 == hole2 || a3 == hole3) &&
		(b&hole0 == hole0 || b&hole1 == hole1 || b&hole2 == hole2 || b&hole3 == hole3) {
		return clmulSplit(a0, a1, a2, a3, b)
	}
	return clmulHoles(a0, a1, a2, a3, b)
}

// clmulSplit is the always-exact slow path for the one operand shape the
// holes multiply cannot handle: both operands with a completely full
// residue class, where a column sum can reach 16 and overflow its hole
// (~2^-14 of operand pairs, e.g. a = b = all-ones). Splitting b into
// 32-bit halves caps column sums at 8, making the holes multiply exact
// unconditionally.
func clmulSplit(a0, a1, a2, a3, b uint64) (hi, lo uint64) {
	hl, ll := clmulHoles(a0, a1, a2, a3, b&0xFFFFFFFF)
	hh, lh := clmulHoles(a0, a1, a2, a3, b>>32)
	return hl ^ lh>>32 ^ hh<<32, ll ^ lh<<32
}

// clmulHoles computes the 128-bit carry-less product of a (pre-split into
// its four hole classes) and b via sixteen bits.Mul64 calls.
//
// Writing A_r = {i : bit i of a set, i ≡ r (mod 4)} and B_s likewise, the
// integer product a_r·b_s = Σ_k c_k·2^k has its direct contributions
// c_k = |{(i,j) ∈ A_r×B_s : i+j = k}| only at columns k ≡ r+s (mod 4).
// While every c_k ≤ 15, no column overflows its 4-bit hole, no carry ever
// reaches the next direct column, and bit k of the integer product is
// exactly c_k mod 2 — the GF(2) convolution coefficient. XORing the four
// class products that land on the same residue and masking to that residue
// assembles the exact carry-less product. A column sum of 16 needs both a
// full 16-bit class in a and a full class in b; Clmul64 routes that case
// to the always-exact 32-bit-halved form.
func clmulHoles(a0, a1, a2, a3, b uint64) (hi, lo uint64) {
	b0, b1, b2, b3 := b&hole0, b&hole1, b&hole2, b&hole3
	h0, l0 := xorMul4(a0, b0, a1, b3, a2, b2, a3, b1)
	h1, l1 := xorMul4(a0, b1, a1, b0, a2, b3, a3, b2)
	h2, l2 := xorMul4(a0, b2, a1, b1, a2, b0, a3, b3)
	h3, l3 := xorMul4(a0, b3, a1, b2, a2, b1, a3, b0)
	hi = h0&hole0 | h1&hole1 | h2&hole2 | h3&hole3
	lo = l0&hole0 | l1&hole1 | l2&hole2 | l3&hole3
	return
}

// xorMul4 XORs four full-width integer products (one residue class of the
// holes multiply).
func xorMul4(x0, y0, x1, y1, x2, y2, x3, y3 uint64) (hi, lo uint64) {
	h0, l0 := bits.Mul64(x0, y0)
	h1, l1 := bits.Mul64(x1, y1)
	h2, l2 := bits.Mul64(x2, y2)
	h3, l3 := bits.Mul64(x3, y3)
	return h0 ^ h1 ^ h2 ^ h3, l0 ^ l1 ^ l2 ^ l3
}

// ClmulFilterBatch hashes, tests and compacts a batch in one pass. For
// every word x = xs[k] it forms the 64-bit window word
//
//	w = ((d0·x ⊕ (d1·x)<<64) >> off) & mask ^ b
//
// where · is the carry-less product, so D = d1<<64 | d0 is a polynomial of
// up to 128 coefficients and the window takes coefficients off..off+63 of
// D·x. It keeps w when w is lexicographically at most mx in packed order
// (bit 0 first): the first bit where w and mx differ, the lowest set bit
// of d = w^mx, must be mx's, that is d&-d&w == 0. Kept words go to ws and
// their indices k to idx, in batch order, and the kept count is returned.
// An all-ones mx keeps every word.
//
// This is the per-copy batch form of a Toeplitz hash prefix with a
// threshold test (package hash): D is the truncated reversed diagonal,
// off = n−1, mask keeps the prefix bits, b is the prefix of the affine
// offset, and mx is the largest prefix the caller still admits. off must
// be below 64, every word of xs below 2^(off+1) (an element of off+1
// bits), and ws and idx at least as long as xs; entries past the kept
// count are unspecified (the kernels may write there). The kernel never
// allocates.
func ClmulFilterBatch(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int) int {
	if off > 63 {
		panic("gf2poly: window offset beyond the first product word")
	}
	if len(ws) < len(xs) || len(idx) < len(xs) {
		panic("gf2poly: filter outputs shorter than the batch")
	}
	if len(xs) == 0 {
		return 0
	}
	return clmulFilter(d0, d1, xs, off, mask, b, mx, ws, idx)
}

// filterFunc is the signature of ClmulFilterBatch's backends. They may
// assume len(xs) > 0, off < 64 and outputs at least len(xs) long.
type filterFunc func(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int) int

// filterBackend is one ClmulFilterBatch backend: ok reports whether this
// CPU has the features it needs. Each architecture lists its backends in
// preference order in filterBackends, the pure-Go loop last; tests call
// every available one directly.
type filterBackend struct {
	name string
	ok   bool
	fn   filterFunc
}

// clmulFilter is the first available backend, chosen once by CPU
// detection.
var clmulFilter = func() filterFunc {
	for _, be := range filterBackends {
		if be.ok {
			return be.fn
		}
	}
	return clmulFilterGeneric
}()

// oneWord reports whether the window fits the product's low word: the
// bits p1<<(64−off) would place all fall outside mask, so neither the
// product's high word nor d1 can reach a kept bit. It must be decided by
// this width, never by d1 == 0: with off+mask width past 64 the window
// reads d0·x's high word whatever d1 is.
func oneWord(off uint, mask uint64) bool { return off == 0 || mask>>(64-off) == 0 }

// keep is ClmulFilterBatch's test: w is lexicographically at most mx.
func keep(w, mx uint64) bool {
	d := w ^ mx
	return d&-d&w == 0
}

// clmulFilterGeneric is ClmulFilterBatch's pure-Go loop and the
// differential anchor of the other backends.
func clmulFilterGeneric(d0, d1 uint64, xs []uint64, off uint, mask, b, mx uint64, ws []uint64, idx []int) int {
	kept := 0
	for k, x := range xs {
		p1, p0 := clmul64Generic(d0, x)
		if d1 != 0 {
			_, l := clmul64Generic(d1, x)
			p1 ^= l
		}
		w := (p0>>off|p1<<(64-off))&mask ^ b // off = 0 shifts p1 out: zero, by Go spec
		if keep(w, mx) {
			ws[kept], idx[kept] = w, k
			kept++
		}
	}
	return kept
}

// ClmulAccInto accumulates the carry-less product of two packed GF(2)
// polynomials into dst: dst ^= a·b. Words are little-endian in the bit
// order of package bitvec: coefficient of x^(64i+j) is bit j of word i, so
// bitvec.BitVec.Words slices can be passed directly. dst must have at
// least len(a)+len(b) words and must not alias a or b; it is accumulated
// into, not overwritten, so callers start from a zeroed buffer for a plain
// product. The kernel never allocates.
func ClmulAccInto(dst, a, b []uint64) {
	if len(dst) < len(a)+len(b) {
		panic("gf2poly: clmul destination shorter than len(a)+len(b) words")
	}
	if hasCLMUL {
		for i, aw := range a {
			if aw == 0 {
				continue
			}
			row := dst[i : i+len(b)+1]
			for j, bw := range b {
				if bw == 0 {
					continue
				}
				hi, lo := clmulAsm(aw, bw)
				row[j] ^= lo
				row[j+1] ^= hi
			}
		}
		return
	}
	for i, aw := range a {
		if aw == 0 {
			continue
		}
		a0, a1, a2, a3 := aw&hole0, aw&hole1, aw&hole2, aw&hole3
		aFull := a0 == hole0 || a1 == hole1 || a2 == hole2 || a3 == hole3
		row := dst[i : i+len(b)+1]
		for j, bw := range b {
			if bw == 0 {
				continue
			}
			var hi, lo uint64
			if aFull && (bw&hole0 == hole0 || bw&hole1 == hole1 ||
				bw&hole2 == hole2 || bw&hole3 == hole3) {
				hi, lo = clmulSplit(a0, a1, a2, a3, bw)
			} else {
				hi, lo = clmulHoles(a0, a1, a2, a3, bw)
			}
			row[j] ^= lo
			row[j+1] ^= hi
		}
	}
}
