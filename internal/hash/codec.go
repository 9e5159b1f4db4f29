// Wire codec for hash draws. A sketch snapshot must carry its hash
// functions — not just seeds — so that a sketch decoded on another node is
// Merge-compatible with one built locally: the structural-hash
// precondition (Linear.Equal, and sameFunc in streaming) is checked
// against the decoded Ax+b / coefficient vector, exactly as it is for
// in-process clones.
//
// Three function layouts exist on the wire:
//
//   - Toeplitz (kind 2): the n+m−1 diagonal bits plus the m offset bits —
//     the Θ(n+m) representation the family is prized for. The decoder
//     rebuilds the draw through the constructor Toeplitz.Draw uses (the
//     packed kernel, rows built on first use), so the decoded function is
//     structurally and behaviourally identical to the original draw.
//   - General linear (kind 1): the full m×n matrix row by row plus the
//     offset. Used for H_xor, H_sparse draws, and Toeplitz draws too wide
//     to carry a kernel (their diagonal is no longer retained).
//   - Polynomial (kind 3): the s coefficient words over GF(2^n).
//
// Function blobs are nested structures: they carry a kind byte but no
// magic/version of their own — the enclosing sketch message's version
// governs them.
package hash

import (
	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/gf2poly"
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

// AppendFunc appends the wire form of a hash draw. Every function the
// families in this package produce is supported; foreign Func
// implementations make the reader-free form return false.
func AppendFunc(dst []byte, f Func) ([]byte, bool) {
	switch h := f.(type) {
	case *Linear:
		return appendLinear(dst, h), true
	case *polyFunc:
		dst = append(dst, funcKindPoly)
		dst = wire.AppendInt(dst, h.n)
		return wire.AppendWords(dst, h.coeffs), true
	}
	return dst, false
}

func appendLinear(dst []byte, l *Linear) []byte {
	if k := l.toep; k != nil {
		dst = append(dst, funcKindToeplitz)
		dst = wire.AppendInt(dst, k.m)
		dst = wire.AppendInt(dst, k.n)
		dst = wire.AppendBitVec(dst, k.diag())
		return wire.AppendBitVec(dst, l.B)
	}
	dst = append(dst, funcKindLinear)
	dst = wire.AppendInt(dst, l.a.Rows())
	dst = wire.AppendInt(dst, l.a.Cols())
	for i := 0; i < l.a.Rows(); i++ {
		dst = wire.AppendBitVec(dst, l.a.Row(i))
	}
	return wire.AppendBitVec(dst, l.B)
}

// DecodeFunc consumes one function blob. On corrupt or truncated input it
// returns a zero Func and leaves the failure in the reader.
func DecodeFunc(r *wire.Reader) Func {
	switch kind := r.Byte(); kind {
	case funcKindToeplitz, funcKindLinear:
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
			var rows []bitvec.BitVec
			a, rows = gf2.NewSlabMatrix(m, n)
			for i := range rows {
				r.BitVecInto(rows[i])
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
	case funcKindPoly:
		n := r.Int(64)
		coeffs := r.Words()
		if r.Err() != nil {
			return nil
		}
		if n < 1 || len(coeffs) < 1 {
			r.Corrupt("polynomial draw with empty dimension n=%d s=%d", n, len(coeffs))
			return nil
		}
		mask := ^uint64(0) >> (64 - uint(n))
		for _, c := range coeffs {
			if c&^mask != 0 {
				r.Corrupt("polynomial coefficient exceeds field width %d", n)
				return nil
			}
		}
		return &polyFunc{n: n, field: gf2poly.NewField(n), coeffs: coeffs}
	default:
		if r.Err() == nil {
			r.Corrupt("unknown hash function kind %#02x", kind)
		}
		return nil
	}
}

// DecodeLinear consumes a function blob that must be a linear draw.
func DecodeLinear(r *wire.Reader) *Linear {
	f := DecodeFunc(r)
	if r.Err() != nil {
		return nil
	}
	l, ok := f.(*Linear)
	if !ok {
		r.Corrupt("expected a linear hash draw")
		return nil
	}
	return l
}
