// Carry-less-multiply evaluation path for the Toeplitz family.
//
// A Toeplitz matrix is constant along diagonals: row i of A is the
// length-n window of the diagonal string diag at offset m−1−i, so
//
//	(A·x)_i = ⊕_j diag[m−1−i+j]·x_j.
//
// Writing D^R for the reversal of diag (D^R[t] = diag[m+n−2−t]) and
// viewing both D^R and x as polynomials over GF(2) (bit t ↔ coefficient
// of z^t, the packed layout of bitvec.BitVec.Words), the sum above is a
// polynomial-multiplication coefficient:
//
//	(A·x)_i = coefficient n−1+i of D^R(z)·X(z).
//
// Evaluating h(x) = Ax+b therefore costs one carry-less multiply of
// ⌈(m+n−1)/64⌉ × ⌈n/64⌉ words (gf2poly.ClmulAccInto) plus a window
// extraction and the affine XOR — O((n/64)·((m+n)/64)) word operations
// instead of m per-row dot products. Per element, though, the call,
// dispatch and width checks around one or two PCLMULQDQs cost more than
// the multiplies. So for n ≤ 64 and a prefix of mp ≤ 64 output bits,
// Linear.PrefixWords hashes a whole batch of elements in one
// gf2poly.ClmulFilterBatch pass that also applies the caller's bound and
// writes only the elements that pass it: one multiply per element when
// mp+n−1 ≤ 64, two otherwise. On a 2-vCPU Xeon with AVX-512 and
// VPCLMULQDQ (BenchmarkClmulKernel/filter, one element in 256 kept) that
// is ~0.4 and ~0.6 ns per element, ~2.6 and ~2.9 ns on the scalar
// PCLMULQDQ loop, against ~15–23 ns for one EvalInto call at n = 32
// (BenchmarkToeplitzEvalInto). The streaming sketches absorb through it.
//
// The kernel and b are all a Toeplitz *Linear holds, Θ(n+m) bits; its m×n
// matrix is built only when a row reader (the counters' XOR constraints)
// first asks. Draws consume exactly the same randomness as the window
// construction and realize bit-identical functions, so fixed-seed
// estimates are unchanged everywhere downstream (regression-tested).

package hash

import (
	"math/bits"
	"sync/atomic"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/gf2poly"
)

// toepMaxWords bounds the stack-allocated product buffer of the generic
// evaluation path. Kernels attach only when the full product —
// ⌈(m+n−1)/64⌉ + ⌈n/64⌉ words — fits; wider draws (m+n ≳ 450) keep the
// per-row path, which the counting layers (the only users of such widths)
// drive through XOR-constraint systems rather than EvalInto anyway.
const toepMaxWords = 8

// toepKernel is the packed-polynomial representation of one Toeplitz
// draw. It is immutable after construction apart from rows, which is
// published once, so a Linear with a kernel stays safe for concurrent use.
type toepKernel struct {
	n, m int
	// dr is the reversed diagonal D^R packed little-endian:
	// bit t = diag[m+n−2−t], ⌈(m+n−1)/64⌉ words.
	dr []uint64
	// mask clears the excess high bits of the last output word.
	mask uint64
	// rows is the matrix form, nil until matrix first runs.
	rows atomic.Pointer[gf2.Matrix]
}

// kernelFits reports whether an n → m draw carries a kernel: its full
// product, ⌈(m+n−1)/64⌉ + ⌈n/64⌉ words, fits toepMaxWords.
func kernelFits(n, m int) bool {
	return n >= 1 && m >= 1 && (m+n-1+63)/64+(n+63)/64 <= toepMaxWords
}

// newToeplitz is DecodeLinear's Toeplitz constructor: the draw with
// diagonal diag (n+m−1 bits) and offset b, built as Toeplitz.Draw builds
// it. Draws too wide for a kernel hold their rows from the start.
func newToeplitz(n, m int, diag, b bitvec.BitVec) *Linear {
	if !kernelFits(n, m) {
		return NewLinear(toeplitzMatrix(n, m, diag), b)
	}
	return newKernelLinear(n, m, diag.Reverse().Words(), b)
}

// toeplitzMatrix builds the m×n matrix whose row i is diag's window at m−1−i.
func toeplitzMatrix(n, m int, diag bitvec.BitVec) *gf2.Matrix {
	a := gf2.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		diag.WindowInto(m-1-i, a.Row(i))
	}
	return a
}

// kernelLinear is a kernel draw's Linear and its kernel, allocated as one
// object; the Linear's toep points into it.
type kernelLinear struct {
	l Linear
	k toepKernel
}

// newKernelLinear returns the n → m draw with reversed diagonal dr and
// offset b; the caller checks kernelFits.
func newKernelLinear(n, m int, dr []uint64, b bitvec.BitVec) *Linear {
	d := &kernelLinear{}
	k := &d.k
	k.n, k.m, k.dr = n, m, dr
	k.mask = ^uint64(0) >> ((64 - uint(m)%64) % 64)
	if m <= 64 {
		d.l.bu = b.Uint64()
	}
	d.l.B, d.l.toep = b, k
	return &d.l
}

// diag writes the draw's diagonal string into buf by undoing dr's
// reversal and returns it as a view of buf.
func (k *toepKernel) diag(buf *[toepMaxWords]uint64) bitvec.BitVec {
	d := bitvec.View(k.m+k.n-1, buf[:len(k.dr)])
	bitvec.View(k.m+k.n-1, k.dr).ReverseInto(d)
	return d
}

// matrix returns the draw's matrix form, built on the first call. Racing
// first callers may each build one; the compare-and-swap publishes one
// and drops the rest, so every caller sees the same pointer.
func (k *toepKernel) matrix() *gf2.Matrix {
	if a := k.rows.Load(); a != nil {
		return a
	}
	var buf [toepMaxWords]uint64
	k.rows.CompareAndSwap(nil, toeplitzMatrix(k.n, k.m, k.diag(&buf)))
	return k.rows.Load()
}

// PrefixWords hashes a batch of elements of at most 64 bits and keeps
// those whose prefix passes a bound, one call per batch. xw[k] is element
// k's bitvec word 0 (no bits at or above InBits); its prefix y is h(x)'s
// first mp bits packed as bitvec word 0 — bit i is output bit i, the bits
// at and above mp are zero. Element k is kept when y is lexicographically
// at most mx in that packed order (bit 0 first; bits of mx at and above mp
// do not matter, and an all-ones mx keeps every element): y goes to
// dst[j] and k to idx[j], j counting the kept elements in batch order,
// and PrefixWords returns how many there are. dst and idx must be at
// least as long as xw; their entries past the kept count are unspecified.
//
// Rows 0..mp−1 read the low mp+n−1 bits of the reversed diagonal, so each
// element costs one carry-less multiply when mp+n−1 ≤ 64 and two
// otherwise, all in one gf2poly.ClmulFilterBatch pass. It reports false,
// writing nothing, when h has no carry-less kernel (non-Toeplitz draws),
// n > 64, or mp is outside 1..min(m, 64); an empty batch therefore tests
// whether the kernel serves mp-bit prefixes.
func (l *Linear) PrefixWords(mp int, mx uint64, xw, dst []uint64, idx []int) (int, bool) {
	k := l.toep
	if k == nil || k.n > 64 || mp < 1 || mp > 64 || mp > k.m {
		return 0, false
	}
	// Diagonal bits at or above mp+n−1 only reach product coefficients
	// past the window, so the words need no truncation: the window mask
	// drops them, and the second word is needed only when the window's
	// diagonal spills into it.
	var d1 uint64
	if mp+k.n-1 > 64 {
		d1 = k.dr[1]
	}
	mask := ^uint64(0) >> (64 - uint(mp))
	return gf2poly.ClmulFilterBatch(k.dr[0], d1, xw, uint(k.n-1), mask, l.B.Words()[0]&mask, mx, dst, idx), true
}

// evalInto computes Ax+b into dst via the carry-less multiply: the
// product D^R·X, the m-bit window at offset n−1, then the affine XOR —
// all fused, allocation-free, and without touching kernel state.
func (k *toepKernel) evalInto(x, dst, b bitvec.BitVec) {
	if x.Len() != k.n {
		panic("gf2: vector width mismatch")
	}
	if dst.Len() != k.m {
		panic("gf2: destination width mismatch")
	}
	xw := x.Words()
	dr := k.dr
	if len(xw) == 1 && len(dr) <= 2 {
		// n ≤ 64 and m+n−1 ≤ 128: the product fits three words and the
		// m-bit window at offset n−1 spans at most two of them.
		p1, p0 := gf2poly.Clmul64(dr[0], xw[0])
		var p2 uint64
		if len(dr) == 2 {
			h2, l2 := gf2poly.Clmul64(dr[1], xw[0])
			p1 ^= l2
			p2 = h2
		}
		off := uint(k.n - 1)
		dw := dst.Words()
		bw := b.Words()
		w := p0>>off | p1<<(64-off) // off = 0 shifts by 64: zero, by Go spec
		if len(dw) == 1 {
			dw[0] = w&k.mask ^ bw[0]
			return
		}
		dw[0] = w ^ bw[0]
		dw[1] = (p1>>off|p2<<(64-off))&k.mask ^ bw[1]
		return
	}
	var buf [toepMaxWords]uint64
	prod := buf[:len(dr)+len(xw)]
	gf2poly.ClmulAccInto(prod, dr, xw)
	bitvec.WindowFromWords(prod, k.n-1, dst)
	dst.XorInPlace(b)
}

// evalUint64 is Linear.EvalUint64's kernel path, with bu the offset in
// integer form. It serves only n, m ≤ 64, so the product fits two words.
func (k *toepKernel) evalUint64(v, bu uint64) uint64 {
	if k.n > 64 || k.m > 64 {
		panic("hash: EvalUint64 needs at most 64 input and output bits")
	}
	xw := bits.Reverse64(v) >> (64 - uint(k.n))
	p1, p0 := gf2poly.Clmul64(k.dr[0], xw)
	if len(k.dr) == 2 {
		_, l2 := gf2poly.Clmul64(k.dr[1], xw)
		p1 ^= l2
	}
	off := uint(k.n - 1)
	w := (p0>>off | p1<<(64-off)) & k.mask
	return bits.Reverse64(w)>>(64-uint(k.m)) ^ bu
}
