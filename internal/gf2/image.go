package gf2

import "mcf0/internal/bitvec"

// ImageSearcher answers lexicographic queries about the affine image
//
//	Y = { A·x + b : x ∈ {0,1}^n, x satisfies cons }
//
// where cons is an optional set of additional linear constraints on x (used
// by AffineFindMin, Proposition 4; nil means unconstrained). This is the
// prefix-searching primitive from the proof of Proposition 2: feasibility of
// a prefix y₁…yₗ reduces to consistency of the stacked linear system
// A[1..l]·x = y[1..l] ⊕ b[1..l] together with cons.
//
// The searcher keeps one persistent System for its whole lifetime, managed
// through a PrefixStack: prefix rows are committed with per-position
// checkpoints and a query rewinds only to the first position where its
// prefix diverges from the previously committed one, instead of cloning
// the base system and replaying the prefix from scratch. Successive
// SuccessorInto steps share all but one prefix row, so an ascending walk
// costs O(1) row operations per prefix position probed and allocates
// nothing in steady state.
// A searcher is single-goroutine, like the System underneath.
type ImageSearcher struct {
	a  *Matrix
	b  bitvec.BitVec
	ps *PrefixStack
	// scratch holds one reduced row during prefix extension so the greedy
	// walk performs no per-row allocation; prefixBuf backs SuccessorInto.
	scratch   bitvec.BitVec
	prefixBuf []bool
}

// NewImageSearcher builds a searcher for the image of h(x) = Ax + b over
// solutions of cons (may be nil). The searcher takes ownership of cons: it
// extends and rewinds the system across queries (never below the state
// passed in), so the caller must not touch cons afterwards.
func NewImageSearcher(a *Matrix, b bitvec.BitVec, cons *System) *ImageSearcher {
	return &ImageSearcher{
		a:       a,
		b:       b,
		ps:      NewPrefixStack(a, b, cons),
		scratch: bitvec.New(a.Cols()),
	}
}

// LexMinWithPrefixInto writes the lexicographically smallest image element
// whose first len(prefix) bits equal prefix into dst (caller-owned, one
// bit per row of A, fully overwritten) and reports whether one exists. On
// false, dst's contents are unspecified.
func (s *ImageSearcher) LexMinWithPrefixInto(prefix []bool, dst bitvec.BitVec) bool {
	m := s.a.Rows()
	if len(prefix) > m {
		panic("gf2: prefix longer than image width")
	}
	if dst.Len() != m {
		panic("gf2: destination width mismatch")
	}
	if !s.ps.ExtendTo(prefix) {
		return false
	}
	dw := dst.Words()
	for i := range dw {
		dw[i] = 0
	}
	for i, bit := range prefix {
		if bit {
			dst.Set(i, true)
		}
	}
	// Greedily extend: prefer yᵢ = 0; the residual tells us when the value
	// is forced. Reducing (Aᵢ, bᵢ) gives the rhs that corresponds to yᵢ=0;
	// if the reduced row is zero the only consistent choice is yᵢ = t ⊕ bᵢ
	// where t is the reduced rhs of the homogeneous attempt. Every chosen
	// bit is committed with its own checkpoint, so a following Successor
	// query rewinds straight to its flip position.
	sys := s.ps.System()
	for i := len(prefix); i < m; i++ {
		row := s.a.Row(i)
		rr := sys.ResidualInto(row, s.b.Get(i), s.scratch) // rhs for yᵢ = 0
		if s.scratch.IsZero() {
			// yᵢ forced: consistent value flips rr to false.
			if rr {
				dst.Set(i, true)
			}
			s.ps.CommitForced(rr)
			continue
		}
		// Row independent: both values feasible, take 0 and commit the
		// already-reduced residual (CommitResidual copies it, so the
		// scratch stays reusable).
		s.ps.CommitResidual(false, s.scratch, rr)
	}
	return true
}

// MinInto writes the lexicographically smallest image element into dst and
// reports whether the image is nonempty.
func (s *ImageSearcher) MinInto(dst bitvec.BitVec) bool {
	return s.LexMinWithPrefixInto(nil, dst)
}

// SuccessorInto writes the smallest image element strictly greater than y
// into dst (caller-owned, one bit per row of A) and reports whether one
// exists.
// dst may alias y: y's bits are copied out before dst is written. It
// follows the paper's strategy — walk the rightmost zeros of y, trying to
// extend prefix y₁…y_{r-1}·1 for each zero position r from right to left.
// When y is the element a preceding MinInto/SuccessorInto call produced,
// each probe costs one row operation: the walk's bits are committed with
// per-position checkpoints, so the searcher rewinds exactly to the flip
// position.
func (s *ImageSearcher) SuccessorInto(y, dst bitvec.BitVec) bool {
	m := s.a.Rows()
	if y.Len() != m {
		panic("gf2: successor width mismatch")
	}
	if dst.Len() != m {
		panic("gf2: destination width mismatch")
	}
	if cap(s.prefixBuf) < m {
		s.prefixBuf = make([]bool, m)
	}
	return SuccessorPrefixes(y, s.prefixBuf[:m], func(prefix []bool) bool {
		return s.LexMinWithPrefixInto(prefix, dst)
	})
}
