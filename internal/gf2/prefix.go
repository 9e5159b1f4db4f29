package gf2

import "mcf0/internal/bitvec"

// PrefixStack maintains the committed-prefix discipline shared by the
// affine ImageSearcher and the oracle-backed mirror in package counting: a
// persistent System plus, for every committed prefix bit, the Checkpoint
// that undoes its row. Committing bit yᵢ stacks the equation
// Aᵢ·x = yᵢ ⊕ bᵢ; ExtendTo rewinds to the first position where a new
// prefix diverges from the committed one and commits the remainder, so
// consecutive nested or sibling prefixes cost O(rows changed) instead of a
// clone-and-replay. Single-goroutine, like the System underneath.
type PrefixStack struct {
	sys       *System
	a         *Matrix
	b         bitvec.BitVec
	committed []bool
	marks     []Checkpoint
}

// NewPrefixStack builds the stack for prefix systems of A·x = y ⊕ b on top
// of sys (nil means unconstrained). It takes ownership of sys: the stack
// extends and rewinds it across queries (never below the state passed in),
// so the caller must not touch sys afterwards except through the stack.
func NewPrefixStack(a *Matrix, b bitvec.BitVec, sys *System) *PrefixStack {
	if b.Len() != a.Rows() {
		panic("gf2: offset width must equal row count")
	}
	if sys == nil {
		sys = NewSystem(a.Cols())
	} else if sys.Cols() != a.Cols() {
		panic("gf2: constraint system width mismatch")
	}
	return &PrefixStack{sys: sys, a: a, b: b}
}

// System returns the underlying system, positioned at the committed
// prefix — what a feasibility oracle reads its constraint rows from. The
// gf2.System ownership contract applies: rows read from it are invalidated
// by the stack's next rewind.
func (p *PrefixStack) System() *System { return p.sys }

// ExtendTo rewinds to the longest common prefix of the committed bits and
// prefix, then commits the remaining bits of prefix one row at a time. It
// returns false as soon as the system goes inconsistent (the offending row
// stays committed so the next query rewinds past it in O(1)).
func (p *PrefixStack) ExtendTo(prefix []bool) bool {
	c := 0
	for c < len(prefix) && c < len(p.committed) && prefix[c] == p.committed[c] {
		c++
	}
	if len(p.committed) > c {
		p.sys.Rewind(p.marks[c])
		p.committed = p.committed[:c]
		p.marks = p.marks[:c]
	}
	if !p.sys.Consistent() {
		return false
	}
	for i := c; i < len(prefix); i++ {
		p.marks = append(p.marks, p.sys.Mark())
		p.committed = append(p.committed, prefix[i])
		p.sys.Add(p.a.Row(i), prefix[i] != p.b.Get(i))
		if !p.sys.Consistent() {
			return false
		}
	}
	return true
}

// CommitForced records bit for the next prefix position whose row reduced
// to zero (the bit is forced): the system state is unchanged, only the
// checkpoint is recorded so a later ExtendTo can rewind through it.
func (p *PrefixStack) CommitForced(bit bool) {
	p.marks = append(p.marks, p.sys.Mark())
	p.committed = append(p.committed, bit)
}

// CommitResidual records bit for the next prefix position and installs its
// already-reduced row r with right-hand side rhs (AddPrereduced copies r,
// so the caller's scratch stays reusable).
func (p *PrefixStack) CommitResidual(bit bool, r bitvec.BitVec, rhs bool) {
	p.marks = append(p.marks, p.sys.Mark())
	p.committed = append(p.committed, bit)
	p.sys.AddPrereduced(r, rhs)
}

// SuccessorPrefixes drives the paper's successor strategy, shared by the
// affine ImageSearcher and the oracle-backed mirror in package counting so
// the two walks cannot diverge: it fills buf (caller scratch, length
// y.Len()) with y's bits and, for each zero position r from right to left,
// probes the candidate prefix y₁…y_{r-1}·1 as buf[:r+1], restoring buf[r]
// when the probe fails. It returns true as soon as a probe succeeds,
// leaving buf at the successful prefix; probe must not retain its
// argument. The probe closure is only ever called, never stored, so
// callers' closures stay stack-allocated.
func SuccessorPrefixes(y bitvec.BitVec, buf []bool, probe func(prefix []bool) bool) bool {
	m := y.Len()
	if len(buf) != m {
		panic("gf2: successor buffer width mismatch")
	}
	for i := 0; i < m; i++ {
		buf[i] = y.Get(i)
	}
	for r := m - 1; r >= 0; r-- {
		if buf[r] {
			continue
		}
		buf[r] = true
		if probe(buf[:r+1]) {
			return true
		}
		buf[r] = false
	}
	return false
}
