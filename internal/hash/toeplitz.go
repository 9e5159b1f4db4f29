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
// Linear.PrefixWords evaluates a whole batch of elements in one
// gf2poly.ClmulWindowBatch loop: one multiply per element when
// mp+n−1 ≤ 64, two otherwise, at ~2 and ~2.5 ns per element on a
// 2-vCPU Xeon (BenchmarkClmulKernel/window), against ~15–23 ns for one
// EvalInto call at n = 32 (BenchmarkToeplitzEvalInto). The streaming
// sketches absorb through it.
//
// The kernel is attached to the *Linear a Toeplitz draw returns; the
// matrix A is still materialised because the model counters consume rows
// as XOR constraints (ZeroPrefixSystem and friends). Draws consume
// exactly the same randomness as the window-based construction and the
// kernel realizes bit-identical functions, so fixed-seed estimates are
// unchanged everywhere downstream (regression-tested).

package hash

import (
	"math/bits"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2poly"
)

// toepMaxWords bounds the stack-allocated product buffer of the generic
// evaluation path. Kernels attach only when the full product —
// ⌈(m+n−1)/64⌉ + ⌈n/64⌉ words — fits; wider draws (m+n ≳ 450) keep the
// per-row path, which the counting layers (the only users of such widths)
// drive through XOR-constraint systems rather than EvalInto anyway.
const toepMaxWords = 8

// toepKernel is the packed-polynomial representation of one Toeplitz
// draw. It is immutable after construction and carries no scratch, so a
// Linear with a kernel stays safe for concurrent EvalInto calls.
type toepKernel struct {
	n, m int
	// dr is the reversed diagonal D^R packed little-endian:
	// bit t = diag[m+n−2−t], ⌈(m+n−1)/64⌉ words.
	dr []uint64
	// mask clears the excess high bits of the last output word.
	mask uint64
	// bu is b in integer form (Uint64Hash convention) when m ≤ 64.
	bu uint64
}

// newToepKernel packs the diagonal of a Toeplitz draw, or returns nil
// when the evaluation buffers would not fit toepMaxWords.
func newToepKernel(n, m int, diag, b bitvec.BitVec) *toepKernel {
	if n < 1 || m < 1 {
		return nil
	}
	if (m+n-1+63)/64+(n+63)/64 > toepMaxWords {
		return nil
	}
	k := &toepKernel{n: n, m: m, dr: diag.Reverse().Words()}
	k.finish(b)
	return k
}

func (k *toepKernel) finish(b bitvec.BitVec) {
	if tail := uint(k.m) % 64; tail != 0 {
		k.mask = 1<<tail - 1
	} else {
		k.mask = ^uint64(0)
	}
	if k.m <= 64 {
		k.bu = b.Uint64()
	}
}

// PrefixWords writes the first mp output bits of h(x) for a batch of
// elements of at most 64 bits, one call per batch: xw[k] is element k's
// bitvec word 0 (no bits at or above InBits), and dst[k] receives
// h(x)'s first mp bits packed as bitvec word 0 — bit i is output bit i,
// the bits at and above mp are zero. dst must be at least as long as xw
// and may alias it. Rows 0..mp−1 read the low mp+n−1 bits of the
// reversed diagonal (see toepKernel.prefix), so each element costs one
// carry-less multiply when mp+n−1 ≤ 64 and two otherwise, all in one
// gf2poly.ClmulWindowBatch loop. It reports false, writing nothing, when
// h has no carry-less kernel (non-Toeplitz draws), n > 64, or mp is
// outside 1..min(m, 64); an empty batch therefore tests whether the
// kernel serves mp-bit prefixes.
func (l *Linear) PrefixWords(mp int, xw, dst []uint64) bool {
	k := l.toep
	if k == nil || k.n > 64 || mp < 1 || mp > 64 || mp > k.m {
		return false
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
	gf2poly.ClmulWindowBatch(k.dr[0], d1, xw, uint(k.n-1), mask, l.B.Words()[0]&mask, dst)
	return true
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

// evalUint64 is the integer-form evaluation (Uint64Hash convention);
// callers guarantee n ≤ 64 and m ≤ 64, so the product fits two words.
func (k *toepKernel) evalUint64(v uint64) uint64 {
	xw := bits.Reverse64(v) >> (64 - uint(k.n))
	p1, p0 := gf2poly.Clmul64(k.dr[0], xw)
	if len(k.dr) == 2 {
		_, l2 := gf2poly.Clmul64(k.dr[1], xw)
		p1 ^= l2
	}
	off := uint(k.n - 1)
	w := (p0>>off | p1<<(64-off)) & k.mask
	return bits.Reverse64(w)>>(64-uint(k.m)) ^ k.bu
}

// linearU64 adapts a *Linear with InBits, OutBits ≤ 64 to the Uint64Hash
// interface: the Toeplitz carry-less kernel when one is attached, a
// single-word row sweep otherwise. Stateless and safe for concurrent use.
type linearU64 struct {
	l  *Linear
	bu uint64
}

// EvalUint64 implements Uint64Hash.
func (u *linearU64) EvalUint64(v uint64) uint64 {
	l := u.l
	if k := l.toep; k != nil {
		return k.evalUint64(v)
	}
	xw := bits.Reverse64(v) >> (64 - uint(l.A.Cols()))
	var y uint64
	for i, m := 0, l.A.Rows(); i < m; i++ {
		y = y<<1 | uint64(bits.OnesCount64(l.A.Row(i).Words()[0]&xw)&1)
	}
	return y ^ u.bu
}

// AsUint64Hash returns an integer-form evaluator for h when one exists:
// h itself if it already implements Uint64Hash (the polynomial family),
// or a zero-allocation adapter for any *Linear over a ≤64-bit universe
// with ≤64 output bits. The returned evaluator realizes exactly the same
// function as h (EvalUint64's integer convention mirrors Eval bit for
// bit), so switching a call site onto it never changes estimates.
func AsUint64Hash(h Func) (Uint64Hash, bool) {
	if u, ok := h.(Uint64Hash); ok {
		return u, true
	}
	if l, ok := h.(*Linear); ok && l.InBits() >= 1 && l.InBits() <= 64 && l.OutBits() <= 64 {
		return &linearU64{l: l, bu: l.B.Uint64()}, true
	}
	return nil, false
}
