// Package gf2 implements linear algebra over GF(2): matrices, incremental
// Gaussian elimination with right-hand sides, solution enumeration, and
// lexicographic search over affine images. These primitives implement the
// prefix-searching strategy of Propositions 2 and 4 of the paper.
//
// The kernels are word-parallel (64 matrix entries per machine operation)
// and the hot entry points have destination-passing variants (MulVecInto,
// System.ResidualInto) with the ownership contract of package bitvec: the
// caller allocates the destination once, the callee never retains it.
package gf2

import (
	"math/bits"
	"slices"

	"mcf0/internal/bitvec"
)

// Matrix is a dense boolean matrix stored row-major in one word slab: row
// i is words[i·stride : (i+1)·stride] with stride = ⌈cols/64⌉, in bitvec's
// word layout (the excess high bits of a row's last word are zero).
// MulVecInto streams over the slab without a per-row pointer chase.
type Matrix struct {
	words      []uint64
	rows, cols int
	stride     int
}

// NewMatrix returns an all-zero rows×cols matrix. Constructors fill its
// rows through Row before sharing it; a shared matrix is read-only.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimensions")
	}
	stride := (cols + 63) / 64
	return &Matrix{words: make([]uint64, rows*stride), rows: rows, cols: cols, stride: stride}
}

// RandomMatrix returns a rows×cols matrix with i.i.d. uniform entries drawn
// from next, row by row.
func RandomMatrix(rows, cols int, next func() uint64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		m.Row(i).FillRandom(next)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns row i as a view of the matrix storage, without allocating:
// writes through it change the matrix, so only a matrix's constructor
// writes them.
func (m *Matrix) Row(i int) bitvec.BitVec {
	if uint(i) >= uint(m.rows) {
		panic("gf2: row index out of range")
	}
	lo := i * m.stride
	return bitvec.View(m.cols, m.words[lo:lo+m.stride:lo+m.stride])
}

// Equal reports whether m and o have the same shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	return m.rows == o.rows && m.cols == o.cols && slices.Equal(m.words, o.words)
}

// MulVec returns the matrix-vector product Mx over GF(2).
func (m *Matrix) MulVec(x bitvec.BitVec) bitvec.BitVec {
	y := bitvec.New(m.rows)
	m.MulVecInto(x, y)
	return y
}

// MulVecInto computes Mx into dst (width Rows()), allocation-free. dst is
// caller-owned scratch; it is fully overwritten.
func (m *Matrix) MulVecInto(x, dst bitvec.BitVec) {
	if x.Len() != m.cols {
		panic("gf2: vector width mismatch")
	}
	if dst.Len() != m.rows {
		panic("gf2: destination width mismatch")
	}
	dw := dst.Words()
	for i := range dw {
		dw[i] = 0
	}
	m.mulVecFlat(x.Words(), dw)
}

// mulVecFlat is the product: one sequential pass over the slab, no
// per-row pointer chase. It is kept out of MulVecInto so that the width
// checks' panic paths do not crowd the loops' registers.
func (m *Matrix) mulVecFlat(xw, dw []uint64) {
	flat := m.words
	if m.stride == 1 {
		// Accumulate 64 output bits in a register before touching dw.
		x0 := xw[0]
		for base, wi := 0, 0; base < len(flat); base, wi = base+64, wi+1 {
			dw[wi] = parities(flat[base:min(base+64, len(flat))], x0)
		}
		return
	}
	stride := m.stride
	xs := xw[:stride]
	if stride == 4 {
		// The ApproxMC/Minimum shapes (n up to 256) hit this stride; a
		// hand-unrolled body keeps the loop free of inner-loop control.
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		off := 0
		for i := 0; i < m.rows; i++ {
			fold := flat[off]&x0 ^ flat[off+1]&x1 ^ flat[off+2]&x2 ^ flat[off+3]&x3
			dw[i/64] |= uint64(bits.OnesCount64(fold)&1) << (uint(i) % 64)
			off += 4
		}
		return
	}
	for i := 0; i < m.rows; i++ {
		rw := flat[i*stride : (i+1)*stride]
		var fold uint64
		for k := range rw {
			fold ^= rw[k] & xs[k]
		}
		dw[i/64] |= uint64(bits.OnesCount64(fold)&1) << (uint(i) % 64)
	}
}

// MulWord returns Mx for a matrix of at most 64 rows and 1 to 64 columns,
// with x and the result in bitvec word form: bit j of x is entry j of the
// vector, bit i of the result is output bit i.
func (m *Matrix) MulWord(x uint64) uint64 {
	if m.stride != 1 || m.rows > 64 {
		panic("gf2: MulWord needs at most 64 rows and 1 to 64 columns")
	}
	return parities(m.words, x)
}

// parities returns the word whose bit j is the parity of rows[j]&x, for
// at most 64 one-word rows.
func parities(rows []uint64, x uint64) uint64 {
	var out uint64
	for j, w := range rows {
		out |= uint64(bits.OnesCount64(w&x)&1) << (uint(j) % 64)
	}
	return out
}

// SelectColumns returns a fresh matrix keeping only the columns for which
// keep[j] is true, in order. Used to restrict a hash matrix to the free
// variables of a DNF term. The compression runs per set bit of the keep
// mask (a software PEXT) rather than per column.
func (m *Matrix) SelectColumns(keep []bool) *Matrix {
	if len(keep) != m.cols {
		panic("gf2: keep mask width mismatch")
	}
	masks := make([]uint64, (m.cols+63)/64)
	w := 0
	for c, k := range keep {
		if k {
			masks[c/64] |= 1 << (uint(c) % 64)
			w++
		}
	}
	s := NewMatrix(m.rows, w)
	for ri := 0; ri < m.rows; ri++ {
		sw := m.words[ri*m.stride : (ri+1)*m.stride]
		dw := s.words[ri*s.stride : (ri+1)*s.stride]
		out := 0
		for wi, mask := range masks {
			src := sw[wi]
			for mk := mask; mk != 0; mk &= mk - 1 {
				if src&(mk&-mk) != 0 {
					dw[out/64] |= 1 << (uint(out) % 64)
				}
				out++
			}
		}
	}
	return s
}
