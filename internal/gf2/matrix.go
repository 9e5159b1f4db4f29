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

	"mcf0/internal/bitvec"
)

// Matrix is a dense boolean matrix stored row-wise. Matrices built by the
// slab constructors (NewSlabMatrix, RandomMatrix, SelectColumns) keep their
// rows in one contiguous word array, which MulVecInto streams over without
// a per-row pointer chase.
type Matrix struct {
	rows []bitvec.BitVec
	cols int
	// flat is the contiguous backing array (stride words per row) when the
	// matrix was slab-built; nil otherwise. AddRow invalidates it.
	flat   []uint64
	stride int
}

// NewMatrix returns an empty matrix with the given number of columns.
func NewMatrix(cols int) *Matrix {
	if cols < 0 {
		panic("gf2: negative column count")
	}
	return &Matrix{cols: cols}
}

// NewSlabMatrix returns an all-zero rows×cols matrix with contiguous row
// storage, along with its row vectors for initialization. The rows alias
// the matrix storage; initialize them before use and do not resize.
func NewSlabMatrix(rows, cols int) (*Matrix, []bitvec.BitVec) {
	if cols < 0 {
		panic("gf2: negative column count")
	}
	rs, flat := bitvec.NewSlabWords(cols, rows)
	m := &Matrix{cols: cols, rows: rs, flat: flat, stride: (cols + 63) / 64}
	return m, rs
}

// RandomMatrix returns a rows×cols matrix with i.i.d. uniform entries drawn
// from next, using a single backing allocation for the row storage.
func RandomMatrix(rows, cols int, next func() uint64) *Matrix {
	m, rs := NewSlabMatrix(rows, cols)
	for i := range rs {
		rs[i].FillRandom(next)
	}
	return m
}

// AddRow appends a row. The row width must equal the column count.
func (m *Matrix) AddRow(r bitvec.BitVec) {
	if r.Len() != m.cols {
		panic("gf2: row width mismatch")
	}
	m.rows = append(m.rows, r)
	m.flat = nil // rows are no longer contiguous
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns row i (shared storage; callers must not mutate).
func (m *Matrix) Row(i int) bitvec.BitVec { return m.rows[i] }

// MulVec returns the matrix-vector product Mx over GF(2).
func (m *Matrix) MulVec(x bitvec.BitVec) bitvec.BitVec {
	y := bitvec.New(len(m.rows))
	m.MulVecInto(x, y)
	return y
}

// MulVecInto computes Mx into dst (width Rows()), allocation-free. dst is
// caller-owned scratch; it is fully overwritten.
func (m *Matrix) MulVecInto(x, dst bitvec.BitVec) {
	if x.Len() != m.cols {
		panic("gf2: vector width mismatch")
	}
	if dst.Len() != len(m.rows) {
		panic("gf2: destination width mismatch")
	}
	dw := dst.Words()
	for i := range dw {
		dw[i] = 0
	}
	xw := x.Words()
	if m.flat != nil {
		m.mulVecFlat(xw, dw)
		return
	}
	if len(xw) == 1 {
		x0 := xw[0]
		for i, r := range m.rows {
			par := uint64(bits.OnesCount64(r.Words()[0]&x0) & 1)
			dw[i/64] |= par << (uint(i) % 64)
		}
		return
	}
	for i, r := range m.rows {
		rw := r.Words()[:len(xw)]
		var fold uint64
		for k := range rw {
			fold ^= rw[k] & xw[k]
		}
		dw[i/64] |= uint64(bits.OnesCount64(fold)&1) << (uint(i) % 64)
	}
}

// mulVecFlat is the contiguous-storage product: one sequential pass over
// the backing array, no per-row pointer chase.
func (m *Matrix) mulVecFlat(xw, dw []uint64) {
	if m.stride == 1 {
		x0 := xw[0]
		flat := m.flat
		// Accumulate 64 output bits in a register before touching dw.
		for base, wi := 0, 0; base < len(flat); base, wi = base+64, wi+1 {
			lim := len(flat) - base
			if lim > 64 {
				lim = 64
			}
			chunk := flat[base : base+lim]
			var out uint64
			for j, w := range chunk {
				out |= uint64(bits.OnesCount64(w&x0)&1) << uint(j)
			}
			dw[wi] = out
		}
		return
	}
	stride := m.stride
	xs := xw[:stride]
	flat := m.flat
	if stride == 4 {
		// The ApproxMC/Minimum shapes (n up to 256) hit this stride; a
		// hand-unrolled body keeps the loop free of inner-loop control.
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		off := 0
		for i := 0; i < len(m.rows); i++ {
			fold := flat[off]&x0 ^ flat[off+1]&x1 ^ flat[off+2]&x2 ^ flat[off+3]&x3
			dw[i/64] |= uint64(bits.OnesCount64(fold)&1) << (uint(i) % 64)
			off += 4
		}
		return
	}
	for i := 0; i < len(m.rows); i++ {
		rw := flat[i*stride : (i+1)*stride]
		var fold uint64
		for k := range rw {
			fold ^= rw[k] & xs[k]
		}
		dw[i/64] |= uint64(bits.OnesCount64(fold)&1) << (uint(i) % 64)
	}
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
	s, rows := NewSlabMatrix(len(m.rows), w)
	for ri, r := range m.rows {
		sw := r.Words()
		dw := rows[ri].Words()
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
