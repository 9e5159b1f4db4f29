// Wire codec for hash draws. A sketch snapshot must carry its hash
// functions — not just seeds — so that a sketch decoded on another node is
// Merge-compatible with one built locally: the structural-hash
// precondition (Linear.Equal, and the coefficient comparison of
// streaming's Estimation.Merge) is checked against the decoded Ax+b /
// coefficient vector, exactly as it is for in-process clones.
//
// Three function layouts exist on the wire:
//
//   - Toeplitz (kind 2): the n+m−1 diagonal bits plus the m offset bits —
//     the Θ(n+m) representation the family is prized for. The decoder
//     rebuilds the draw through the kernel constructor Toeplitz.Draw uses
//     (the packed kernel, rows built on first use), so the decoded
//     function is structurally and behaviourally identical to the
//     original draw.
//   - General linear (kind 1): the full m×n matrix row by row plus the
//     offset. Used for H_xor, H_sparse draws, and Toeplitz draws too wide
//     to carry a kernel (their diagonal is no longer retained).
//   - Polynomial (kind 3): the s coefficient words over GF(2^n), written
//     from a caller's coefficient slab (AppendPoly) and decoded straight
//     into one (DecodePoly).
//
// Function blobs are nested structures: they carry a kind byte but no
// magic/version of their own — the enclosing sketch message's version
// governs them.
package hash

import (
	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/wire"
)

// Nested function-blob kinds.
const (
	funcKindLinear   byte = 1
	funcKindToeplitz byte = 2
	funcKindPoly     byte = 3
)

// maxHashBits bounds decoded hash dimensions; the widest draws in the
// repository are 3n ≤ 192 bits, so 1<<16 is generous while keeping corrupt
// counts from sizing allocations.
const maxHashBits = 1 << 16

// AppendFunc appends the wire form of a linear hash draw (kind 1 or 2),
// the form DecodeLinear reads back. Any other Func makes it return false
// with dst unchanged; a polynomial is written from its coefficients by
// AppendPoly.
func AppendFunc(dst []byte, f Func) ([]byte, bool) {
	l, ok := f.(*Linear)
	if !ok {
		return dst, false
	}
	if k := l.toep; k != nil {
		dst = append(dst, funcKindToeplitz)
		dst = wire.AppendInt(dst, k.m)
		dst = wire.AppendInt(dst, k.n)
		var buf [toepMaxWords]uint64
		dst = wire.AppendBitVec(dst, k.diag(&buf))
		return wire.AppendBitVec(dst, l.B), true
	}
	dst = append(dst, funcKindLinear)
	dst = wire.AppendInt(dst, l.a.Rows())
	dst = wire.AppendInt(dst, l.a.Cols())
	for i := 0; i < l.a.Rows(); i++ {
		dst = wire.AppendBitVec(dst, l.a.Row(i))
	}
	return wire.AppendBitVec(dst, l.B), true
}

// AppendPoly appends the blob (kind 3) of the polynomial over GF(2^n)
// with the given coefficients (coeffs[i] multiplies x^i), the form
// DecodePoly reads back.
func AppendPoly(dst []byte, n int, coeffs []uint64) []byte {
	dst = append(dst, funcKindPoly)
	dst = wire.AppendInt(dst, n)
	return wire.AppendWords(dst, coeffs)
}

// DecodeLinear consumes a function blob that must be a linear draw
// (kind 1 or 2). On corrupt or truncated input it returns nil and leaves
// the failure in the reader.
func DecodeLinear(r *wire.Reader) *Linear {
	kind := r.Byte()
	if r.Err() == nil && kind != funcKindToeplitz && kind != funcKindLinear {
		r.Corrupt("expected a linear hash draw, got kind %#02x", kind)
	}
	m := r.Int(maxHashBits)
	n := r.Int(maxHashBits)
	if r.Err() != nil {
		return nil
	}
	if m < 1 || n < 1 {
		r.Corrupt("linear draw (kind %d) with empty dimension %dx%d", kind, m, n)
		return nil
	}
	var a *gf2.Matrix
	var diag bitvec.BitVec
	if kind == funcKindToeplitz {
		diag = bitvec.New(m + n - 1)
		r.BitVecInto(diag)
	} else {
		a = gf2.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			r.BitVecInto(a.Row(i))
		}
	}
	b := bitvec.New(m)
	r.BitVecInto(b)
	if r.Err() != nil {
		return nil
	}
	if a == nil {
		return newToeplitz(n, m, diag, b)
	}
	return NewLinear(a, b)
}

// DecodePoly consumes a function blob that must be a polynomial draw over
// GF(2^n), 1 ≤ n ≤ 64, and appends its coefficients to dst. It refuses
// an empty polynomial and a coefficient wider than n bits; failures land
// in the reader.
func DecodePoly(r *wire.Reader, n int, dst []uint64) []uint64 {
	if kind := r.Byte(); r.Err() == nil && kind != funcKindPoly {
		r.Corrupt("expected a polynomial hash draw, got kind %#02x", kind)
	}
	if m := r.Int(64); r.Err() == nil && m != n {
		r.Corrupt("polynomial draw over GF(2^%d), want GF(2^%d)", m, n)
	}
	lo := len(dst)
	if dst = r.Words(dst); r.Err() == nil && len(dst) == lo {
		r.Corrupt("polynomial draw without coefficients")
	}
	mask := ^uint64(0) >> (64 - uint(n))
	for _, c := range dst[lo:] {
		if c&^mask != 0 && r.Err() == nil {
			r.Corrupt("polynomial coefficient exceeds field width %d", n)
		}
	}
	return dst
}
