package gf2

import (
	"math/bits"

	"mcf0/internal/bitvec"
)

// System is an online Gaussian-elimination solver for linear systems over
// GF(2). Rows (a, rhs) meaning a·x = rhs are added one at a time; the system
// maintains a row-echelon basis (each pivot row zero before its pivot
// column) and a consistency flag. Adding rows is O(rank · n/64); the
// elimination inner loop runs directly on the 64-bit word representation,
// and back-substitution is deferred to Solve/NullBasis instead of being
// maintained per Add, which halves the elimination work. The zero value is
// not usable; call NewSystem.
//
// # Checkpoint/rewind and row ownership
//
// Mark returns a Checkpoint and Rewind restores the exact state a Checkpoint
// was taken at, undoing every insertion in between. The machinery is an
// insertion journal (the position each pivot was spliced in at, plus the
// inconsistency flag captured per Checkpoint) and a slab-backed row pool:
// rows displaced by a Rewind are recycled into later Adds instead of
// becoming garbage, which is what makes repeated extend/rewind walks
// (ImageSearcher's prefix searches) allocation-free in steady state.
//
// The pool sharpens the aliasing contract of Equations: basis rows obtained
// from Equations (or Residual output) are owned by the system and are
// invalidated by the next Rewind — a recycled row's storage is overwritten
// by a later Add. Callers that hold rows across a Rewind must Clone them;
// callers that only read rows between a Mark and the matching Rewind (the
// oracle backends' per-query constraint reads) need not.
type System struct {
	cols         int
	pivots       []pivotRow // sorted by ascending pivot column
	inconsistent bool
	// journal records, per installed pivot in insertion order, the index it
	// was spliced in at — exactly what Rewind needs to splice it back out —
	// and its insertion serial, which is what lets Rewind detect stale
	// checkpoints. len(journal) == len(pivots) always.
	journal []journalEntry
	serial  uint64 // next insertion serial, monotone across Rewinds
	// free and slab implement the row pool: free holds rows recycled by
	// Rewind, slab the unused remainder of the last slab allocation.
	free []bitvec.BitVec
	slab []bitvec.BitVec
}

type journalEntry struct {
	idx    int32
	serial uint64
}

type pivotRow struct {
	a   bitvec.BitVec
	rhs bool
	col int
}

// NewSystem returns an empty (trivially consistent) system over cols
// variables.
func NewSystem(cols int) *System {
	return &System{cols: cols}
}

// Clone returns an independent copy; subsequent Adds to either do not
// affect the other. Checkpoints taken on the receiver are also valid on the
// clone (and vice versa): a Checkpoint captures only insertion depth, which
// Clone preserves. The clone starts with a fresh row pool.
func (s *System) Clone() *System {
	c := &System{cols: s.cols, inconsistent: s.inconsistent, serial: s.serial}
	c.pivots = make([]pivotRow, len(s.pivots))
	c.journal = append([]journalEntry(nil), s.journal...)
	rows := bitvec.NewSlab(s.cols, len(s.pivots))
	for i, p := range s.pivots {
		rows[i].CopyFrom(p.a)
		c.pivots[i] = pivotRow{a: rows[i], rhs: p.rhs, col: p.col}
	}
	return c
}

// Checkpoint is a point-in-time marker for Rewind; see Mark. The zero value
// marks the empty system. Checkpoints are plain values: taking one is a few
// loads, and it stays valid until a Rewind to an earlier Checkpoint
// (rewinding past it invalidates it — the insertions it counts are gone;
// Rewind detects such stale checkpoints by insertion serial and panics
// rather than silently splicing out the wrong rows).
type Checkpoint struct {
	pivots       int
	serial       uint64
	inconsistent bool
}

// Mark captures the current state for a later Rewind. O(1), no allocation.
func (s *System) Mark() Checkpoint {
	return Checkpoint{pivots: len(s.pivots), serial: s.serial, inconsistent: s.inconsistent}
}

// Rewind restores the state captured by cp, undoing every Add since the
// matching Mark in O(rows undone). The displaced rows are recycled into the
// internal pool, invalidating aliases obtained from Equations between the
// Mark and the Rewind (see the type comment's ownership contract). It
// panics on a stale checkpoint — one whose insertions were already undone
// by a deeper Rewind, even if the system has since re-grown past its depth
// (journal serials are monotone, so a re-grown prefix is detectable).
func (s *System) Rewind(cp Checkpoint) {
	if cp.pivots > len(s.pivots) ||
		(cp.pivots > 0 && s.journal[cp.pivots-1].serial >= cp.serial) {
		panic("gf2: rewind to a stale checkpoint (rewound past, then re-grown)")
	}
	for len(s.pivots) > cp.pivots {
		last := len(s.pivots) - 1
		idx := s.journal[last].idx
		row := s.pivots[idx].a
		copy(s.pivots[idx:], s.pivots[idx+1:])
		s.pivots = s.pivots[:last]
		s.journal = s.journal[:last]
		s.free = append(s.free, row)
	}
	s.inconsistent = cp.inconsistent
}

// newRow hands out a width-cols row from the pool, growing it by a slab
// when empty. The row contains stale bits; every user overwrites it fully
// (CopyFrom) before reading.
func (s *System) newRow() bitvec.BitVec {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		return r
	}
	if len(s.slab) == 0 {
		count := len(s.pivots) + 8
		if count > 256 {
			count = 256
		}
		s.slab = bitvec.NewSlab(s.cols, count)
	}
	r := s.slab[0]
	s.slab = s.slab[1:]
	return r
}

// Cols returns the number of variables.
func (s *System) Cols() int { return s.cols }

// Rank returns the rank of the rows added so far.
func (s *System) Rank() int { return len(s.pivots) }

// Consistent reports whether the system still has at least one solution.
func (s *System) Consistent() bool { return !s.inconsistent }

// reduceWords eliminates the row held in rw (word form) against the current
// basis in place, returning the reduced rhs.
func (s *System) reduceWords(rw []uint64, rhs bool) bool {
	for i := range s.pivots {
		p := &s.pivots[i]
		c0 := p.col / 64
		if rw[c0]&(1<<(uint(p.col)%64)) != 0 {
			// RREF invariant: a pivot row is zero before its pivot column,
			// so the XOR can start at the pivot word.
			pw := p.a.Words()[:len(rw)]
			for k := c0; k < len(rw); k++ {
				rw[k] ^= pw[k]
			}
			rhs = rhs != p.rhs
		}
	}
	return rhs
}

// ResidualInto reduces (a, rhs) against the basis into dst (caller-owned,
// width cols, fully overwritten) and returns the reduced rhs — the
// allocation-free form of Residual. dst must not alias a basis row.
func (s *System) ResidualInto(a bitvec.BitVec, rhs bool, dst bitvec.BitVec) bool {
	if a.Len() != s.cols {
		panic("gf2: row width mismatch")
	}
	dst.CopyFrom(a)
	return s.reduceWords(dst.Words(), rhs)
}

// Add inserts the equation a·x = rhs, updating the basis. If the equation
// contradicts the existing rows the system becomes inconsistent until a
// Rewind to a consistent Checkpoint (or permanently, absent one). The row
// is copied into pooled storage; the caller keeps ownership of a.
func (s *System) Add(a bitvec.BitVec, rhs bool) {
	if a.Len() != s.cols {
		panic("gf2: row width mismatch")
	}
	if s.inconsistent {
		return
	}
	r := s.newRow()
	r.CopyFrom(a)
	rr := s.reduceWords(r.Words(), rhs)
	s.insertReduced(r, rr)
}

// AddPrereduced inserts an equation already reduced against the current
// basis — typically the output of ResidualInto, saving the second
// elimination pass Add would perform. The row is copied; the caller keeps
// ownership of r and may reuse it.
func (s *System) AddPrereduced(r bitvec.BitVec, rhs bool) {
	if r.Len() != s.cols {
		panic("gf2: row width mismatch")
	}
	if s.inconsistent {
		return
	}
	p := s.newRow()
	p.CopyFrom(r)
	s.insertReduced(p, rhs)
}

// insertReduced installs a row that is already reduced against the basis,
// taking ownership of r (pooled storage). The basis stays in echelon (not
// fully reduced) form; Solve and NullBasis back-substitute on demand. Every
// pivot installation is journaled for Rewind; a zero row installs nothing
// and returns its storage to the pool.
func (s *System) insertReduced(r bitvec.BitVec, rr bool) {
	col := r.FirstSet()
	if col < 0 {
		s.free = append(s.free, r)
		if rr {
			s.inconsistent = true
		}
		return
	}
	// Insert keeping pivots sorted by column.
	idx := len(s.pivots)
	for i, p := range s.pivots {
		if p.col > col {
			idx = i
			break
		}
	}
	s.pivots = append(s.pivots, pivotRow{})
	copy(s.pivots[idx+1:], s.pivots[idx:])
	s.pivots[idx] = pivotRow{a: r, rhs: rr, col: col}
	s.journal = append(s.journal, journalEntry{idx: int32(idx), serial: s.serial})
	s.serial++
}

// Solve returns a particular solution with all free variables set to zero.
// The second result is false if the system is inconsistent.
func (s *System) Solve() (bitvec.BitVec, bool) {
	if s.inconsistent {
		return bitvec.BitVec{}, false
	}
	x := bitvec.New(s.cols)
	// Back-substitute from the last pivot upward: pivot rows are zero
	// before their pivot column, and x's bit at p.col is still clear when
	// row p is processed, so a·x sums exactly the later pivots'
	// contributions.
	for i := len(s.pivots) - 1; i >= 0; i-- {
		p := &s.pivots[i]
		if p.a.Dot(x) != p.rhs {
			x.Set(p.col, true)
		}
	}
	return x, true
}

// Equation is one row of a linear system: A·x = RHS.
type Equation struct {
	A   bitvec.BitVec
	RHS bool
}

// Equations returns the echelon basis rows. Their solution set equals that
// of all rows ever added (when consistent); used to translate a system into
// XOR constraints for a SAT solver. Callers must not mutate the vectors.
func (s *System) Equations() []Equation {
	eqs := make([]Equation, len(s.pivots))
	for i, p := range s.pivots {
		eqs[i] = Equation{A: p.a, RHS: p.rhs}
	}
	return eqs
}

// NullBasis returns a basis of the homogeneous solution space {x : Ax = 0}.
func (s *System) NullBasis() []bitvec.BitVec {
	isPivot := make([]bool, s.cols)
	for _, p := range s.pivots {
		isPivot[p.col] = true
	}
	var basis []bitvec.BitVec
	for f := 0; f < s.cols; f++ {
		if isPivot[f] {
			continue
		}
		// Free variable f set to one, all other free variables zero;
		// back-substitute the pivot variables from the last row upward.
		v := bitvec.New(s.cols)
		v.Set(f, true)
		for i := len(s.pivots) - 1; i >= 0; i-- {
			p := &s.pivots[i]
			if p.a.Dot(v) {
				v.Set(p.col, true)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// EnumerateSolutions visits solutions of the system, up to limit of them
// (limit < 0 means all; beware exponential counts). visit returning false
// stops the walk early. The walk uses a Gray-code order over the null-space
// coordinates so each successive solution differs by one basis vector XOR.
func (s *System) EnumerateSolutions(limit int, visit func(bitvec.BitVec) bool) {
	x0, ok := s.Solve()
	if !ok {
		return
	}
	basis := s.NullBasis()
	d := len(basis)
	if limit == 0 {
		return
	}
	cur := x0.Clone()
	if !visit(cur.Clone()) {
		return
	}
	count := 1
	if d >= 63 {
		d = 62 // enumeration beyond 2^62 is never requested with finite limit
	}
	var total uint64 = 1 << uint(d)
	for i := uint64(1); i < total; i++ {
		if limit >= 0 && count >= limit {
			return
		}
		// Gray code: flip the basis vector at the index of the lowest set
		// bit of i.
		j := bits.TrailingZeros64(i)
		cur.XorInPlace(basis[j])
		if !visit(cur.Clone()) {
			return
		}
		count++
	}
}
