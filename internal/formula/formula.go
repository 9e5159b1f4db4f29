// Package formula provides Boolean formula representations — CNF and DNF
// over variables x₀…x_{n−1} — together with evaluation, DIMACS-style I/O,
// random instance generators, and the succinct-set constructions of
// Section 5 of the paper (ranges, arithmetic progressions) as formulas.
//
// Assignments are bitvec.BitVec values of width n, where bit i is the value
// of variable i.
package formula

import (
	"fmt"
	"sort"

	"mcf0/internal/bitvec"
)

// Lit is a literal: variable Var (0-based), negated when Neg is true.
type Lit struct {
	Var int
	Neg bool
}

// Pos returns the positive literal of v.
func Pos(v int) Lit { return Lit{Var: v} }

// Negl returns the negative literal of v.
func Negl(v int) Lit { return Lit{Var: v, Neg: true} }

// Eval returns the literal's truth value under assignment x.
func (l Lit) Eval(x bitvec.BitVec) bool { return x.Get(l.Var) != l.Neg }

// String renders the literal in DIMACS style (1-based, minus for negation).
func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("-%d", l.Var+1)
	}
	return fmt.Sprintf("%d", l.Var+1)
}

// Term is a conjunction of literals (a DNF term).
type Term []Lit

// Eval reports whether every literal holds under x.
func (t Term) Eval(x bitvec.BitVec) bool {
	for _, l := range t {
		if !l.Eval(x) {
			return false
		}
	}
	return true
}

// Normalize sorts literals by variable and reports whether the term is
// consistent (no variable appears both positively and negatively).
// Duplicate literals are removed.
func (t Term) Normalize() (Term, bool) {
	s := append(Term(nil), t...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Var != s[j].Var {
			return s[i].Var < s[j].Var
		}
		return !s[i].Neg && s[j].Neg
	})
	out := s[:0]
	for i, l := range s {
		if i > 0 && s[i-1].Var == l.Var {
			if s[i-1].Neg != l.Neg {
				return nil, false // x ∧ ¬x
			}
			continue // duplicate
		}
		out = append(out, l)
	}
	return out, true
}

// Conjoin returns the conjunction of two terms, normalised; ok is false if
// they conflict.
func (t Term) Conjoin(o Term) (Term, bool) {
	merged := append(append(Term(nil), t...), o...)
	return merged.Normalize()
}

// Clause is a disjunction of literals (a CNF clause).
type Clause []Lit

// Eval reports whether at least one literal holds under x.
func (c Clause) Eval(x bitvec.BitVec) bool {
	for _, l := range c {
		if l.Eval(x) {
			return true
		}
	}
	return false
}

// DNF is a disjunction of terms over N variables. The empty DNF is false;
// a DNF containing an empty term is true.
type DNF struct {
	N     int
	Terms []Term
}

// NewDNF returns an empty (unsatisfiable) DNF over n variables.
func NewDNF(n int) *DNF { return &DNF{N: n} }

// AddTerm appends a term after validating variable ranges.
func (d *DNF) AddTerm(t Term) {
	for _, l := range t {
		if l.Var < 0 || l.Var >= d.N {
			panic(fmt.Sprintf("formula: literal variable %d out of range [0,%d)", l.Var, d.N))
		}
	}
	d.Terms = append(d.Terms, t)
}

// Eval reports whether x satisfies the DNF.
func (d *DNF) Eval(x bitvec.BitVec) bool {
	for _, t := range d.Terms {
		if t.Eval(x) {
			return true
		}
	}
	return false
}

// Size returns the number of terms (the paper's representation size).
func (d *DNF) Size() int { return len(d.Terms) }

// Or returns the disjunction of d and o (same variable count required).
func (d *DNF) Or(o *DNF) *DNF {
	if d.N != o.N {
		panic("formula: variable count mismatch")
	}
	r := NewDNF(d.N)
	r.Terms = append(append([]Term(nil), d.Terms...), o.Terms...)
	return r
}

// ConjoinTerm returns the DNF d ∧ t, distributing t into every term and
// dropping conflicting terms.
func (d *DNF) ConjoinTerm(t Term) *DNF {
	r := NewDNF(d.N)
	for _, dt := range d.Terms {
		if merged, ok := dt.Conjoin(t); ok {
			r.Terms = append(r.Terms, merged)
		}
	}
	return r
}

// CNF is a conjunction of clauses over N variables. The empty CNF is true;
// a CNF containing an empty clause is false.
type CNF struct {
	N       int
	Clauses []Clause
}

// NewCNF returns an empty (valid/true) CNF over n variables.
func NewCNF(n int) *CNF { return &CNF{N: n} }

// AddClause appends a clause after validating variable ranges.
func (c *CNF) AddClause(cl Clause) {
	for _, l := range cl {
		if l.Var < 0 || l.Var >= c.N {
			panic(fmt.Sprintf("formula: literal variable %d out of range [0,%d)", l.Var, c.N))
		}
	}
	c.Clauses = append(c.Clauses, cl)
}

// Eval reports whether x satisfies the CNF.
func (c *CNF) Eval(x bitvec.BitVec) bool {
	for _, cl := range c.Clauses {
		if !cl.Eval(x) {
			return false
		}
	}
	return true
}

// Size returns the number of clauses.
func (c *CNF) Size() int { return len(c.Clauses) }

// TermFixed returns, for a term, the per-variable fixed values it imposes:
// fixed[i] true means variable i is constrained, val bit i gives its value.
// The term must be consistent.
func TermFixed(n int, t Term) (fixed []bool, val bitvec.BitVec) {
	fixed = make([]bool, n)
	val = bitvec.New(n)
	for _, l := range t {
		fixed[l.Var] = true
		val.Set(l.Var, !l.Neg)
	}
	return fixed, val
}
