package formula

import (
	"fmt"

	"mcf0/internal/bitvec"
)

// Range is a 1-dimensional integer interval [Lo, Hi] over an n-bit universe.
type Range struct {
	Lo, Hi uint64
	Bits   int
}

// Validate checks the range is well-formed: Bits ≤ 63 and endpoints fit.
func (r Range) Validate() error {
	if r.Bits < 1 || r.Bits > 63 {
		return fmt.Errorf("formula: range bit width %d out of [1,63]", r.Bits)
	}
	max := uint64(1)<<uint(r.Bits) - 1
	if r.Lo > max || r.Hi > max {
		return fmt.Errorf("formula: range endpoints [%d,%d] exceed %d bits", r.Lo, r.Hi, r.Bits)
	}
	return nil
}

// Empty reports whether the range contains no integers.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// Count returns the number of integers in the range.
func (r Range) Count() uint64 {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// atMostDNF returns terms over variables vars (MSB first) covering exactly
// the assignments whose value is ≤ c (a len(vars)-bit value).
func atMostDNF(vars []int, c uint64) []Term {
	n := len(vars)
	var out []Term
	// One term per 1-bit of c: match c's prefix, then a 0 where c has 1.
	for i := 0; i < n; i++ {
		if c&(1<<uint(n-1-i)) == 0 {
			continue
		}
		var t Term
		for j := 0; j < i; j++ {
			t = append(t, litFor(vars[j], c&(1<<uint(n-1-j)) != 0))
		}
		t = append(t, Negl(vars[i]))
		out = append(out, t)
	}
	// Plus the equality term for c itself.
	var eq Term
	for j := 0; j < n; j++ {
		eq = append(eq, litFor(vars[j], c&(1<<uint(n-1-j)) != 0))
	}
	out = append(out, eq)
	return out
}

// atLeastDNF returns terms covering assignments with value ≥ c.
func atLeastDNF(vars []int, c uint64) []Term {
	n := len(vars)
	var out []Term
	for i := 0; i < n; i++ {
		if c&(1<<uint(n-1-i)) != 0 {
			continue
		}
		var t Term
		for j := 0; j < i; j++ {
			t = append(t, litFor(vars[j], c&(1<<uint(n-1-j)) != 0))
		}
		t = append(t, Pos(vars[i]))
		out = append(out, t)
	}
	var eq Term
	for j := 0; j < n; j++ {
		eq = append(eq, litFor(vars[j], c&(1<<uint(n-1-j)) != 0))
	}
	out = append(out, eq)
	return out
}

func litFor(v int, bit bool) Lit {
	if bit {
		return Pos(v)
	}
	return Negl(v)
}

// rangeTerms returns DNF terms over vars (MSB first) covering exactly
// [lo, hi], following Lemma 4: split at the longest common prefix. At most
// 2·len(vars) terms.
func rangeTerms(vars []int, lo, hi uint64) []Term {
	if lo > hi {
		return nil
	}
	n := len(vars)
	// Boundary cases keep cross products of per-dimension DNFs small: a
	// full-range dimension contributes the empty (always-true) term rather
	// than ~2n redundant ones, and half-bounded ranges need only one side
	// of the Lemma 4 split.
	max := uint64(1)<<uint(n) - 1
	if lo == 0 && hi == max {
		return []Term{{}}
	}
	if lo == 0 {
		return atMostDNF(vars, hi)
	}
	if hi == max {
		return atLeastDNF(vars, lo)
	}
	if lo == hi {
		var t Term
		for j := 0; j < n; j++ {
			t = append(t, litFor(vars[j], lo&(1<<uint(n-1-j)) != 0))
		}
		return []Term{t}
	}
	// Longest common prefix length ℓ; position ℓ has lo-bit 0, hi-bit 1.
	l := 0
	for l < n && (lo&(1<<uint(n-1-l)) != 0) == (hi&(1<<uint(n-1-l)) != 0) {
		l++
	}
	var prefix Term
	for j := 0; j < l; j++ {
		prefix = append(prefix, litFor(vars[j], lo&(1<<uint(n-1-j)) != 0))
	}
	suffixVars := vars[l+1:]
	mask := uint64(1)<<uint(n-l-1) - 1
	loSuf, hiSuf := lo&mask, hi&mask
	var out []Term
	if len(suffixVars) == 0 {
		// Two-point range {lo, hi} differing in the last bit.
		out = append(out,
			append(append(Term(nil), prefix...), Negl(vars[l])),
			append(append(Term(nil), prefix...), Pos(vars[l])))
		return out
	}
	for _, t := range atLeastDNF(suffixVars, loSuf) {
		full := append(append(Term(nil), prefix...), Negl(vars[l]))
		out = append(out, append(full, t...))
	}
	for _, t := range atMostDNF(suffixVars, hiSuf) {
		full := append(append(Term(nil), prefix...), Pos(vars[l]))
		out = append(out, append(full, t...))
	}
	return out
}

// RangeDNF builds the DNF for a 1-dimensional range per Lemma 4, over Bits
// variables (variable 0 is the most significant bit). At most 2·Bits terms.
func RangeDNF(r Range) (*DNF, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	vars := make([]int, r.Bits)
	for i := range vars {
		vars[i] = i
	}
	d := NewDNF(r.Bits)
	d.Terms = rangeTerms(vars, r.Lo, r.Hi)
	return d, nil
}

// MultiRange is a d-dimensional range ∏ᵢ [Loᵢ, Hiᵢ], each dimension over
// Bits bits. It represents tuples, encoded over d·Bits variables with
// dimension j occupying variables [j·Bits, (j+1)·Bits).
type MultiRange struct {
	Dims []Range
}

// Bits returns the total variable count d·n.
func (m MultiRange) Bits() int {
	total := 0
	for _, r := range m.Dims {
		total += r.Bits
	}
	return total
}

// Count returns the number of tuples in the box.
func (m MultiRange) Count() uint64 {
	c := uint64(1)
	for _, r := range m.Dims {
		c *= r.Count()
	}
	return c
}

// MultiRangeDNF builds the DNF of a d-dimensional range by distributing the
// per-dimension DNFs (Lemma 4): at most ∏ᵢ 2·Bitsᵢ ≤ (2n)^d terms.
func MultiRangeDNF(m MultiRange) (*DNF, error) {
	if len(m.Dims) == 0 {
		return nil, fmt.Errorf("formula: empty multirange")
	}
	offset := 0
	perDim := make([][]Term, len(m.Dims))
	for i, r := range m.Dims {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		vars := make([]int, r.Bits)
		for j := range vars {
			vars[j] = offset + j
		}
		perDim[i] = rangeTerms(vars, r.Lo, r.Hi)
		offset += r.Bits
	}
	d := NewDNF(offset)
	// Cross product of per-dimension term lists.
	acc := []Term{{}}
	for _, terms := range perDim {
		if len(terms) == 0 {
			return d, nil // some dimension empty → empty DNF
		}
		var next []Term
		for _, a := range acc {
			for _, t := range terms {
				next = append(next, append(append(Term(nil), a...), t...))
			}
		}
		acc = next
	}
	d.Terms = acc
	return d, nil
}

// Progression is the arithmetic progression [A, A+Step, A+2·Step, …] ∩
// [A, B] with Step = 2^LogStep, over Bits bits (Corollary 1 requires
// power-of-two steps).
type Progression struct {
	A, B    uint64
	LogStep int
	Bits    int
}

// ProgressionDNF builds the DNF for a power-of-two-step arithmetic
// progression: the range DNF for [A, B] conjoined with the term fixing the
// low LogStep bits to A's (elements ≡ A mod 2^LogStep). At most 2·Bits
// terms.
func ProgressionDNF(p Progression) (*DNF, error) {
	if p.LogStep < 0 || p.LogStep >= p.Bits {
		return nil, fmt.Errorf("formula: log step %d out of range for %d bits", p.LogStep, p.Bits)
	}
	base, err := RangeDNF(Range{Lo: p.A, Hi: p.B, Bits: p.Bits})
	if err != nil {
		return nil, err
	}
	var low Term
	for i := 0; i < p.LogStep; i++ {
		v := p.Bits - 1 - i // low bit i is variable Bits-1-i
		low = append(low, litFor(v, p.A&(1<<uint(i)) != 0))
	}
	return base.ConjoinTerm(low), nil
}

// MultiProgressionDNF builds the DNF of a product of progressions,
// dimension j over its own variable block.
func MultiProgressionDNF(ps []Progression) (*DNF, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("formula: empty progression product")
	}
	offset := 0
	acc := []Term{{}}
	total := 0
	for _, p := range ps {
		total += p.Bits
	}
	for _, p := range ps {
		d, err := ProgressionDNF(p)
		if err != nil {
			return nil, err
		}
		var next []Term
		for _, a := range acc {
			for _, t := range d.Terms {
				shifted := make(Term, len(t))
				for i, l := range t {
					shifted[i] = Lit{Var: l.Var + offset, Neg: l.Neg}
				}
				next = append(next, append(append(Term(nil), a...), shifted...))
			}
		}
		acc = next
		offset += p.Bits
	}
	d := NewDNF(total)
	d.Terms = acc
	return d, nil
}

// RangeCNF builds a CNF for a 1-dimensional range (Observation 2): the
// conjunction of "≥ Lo" and "≤ Hi" each of which is O(Bits) clauses — the
// De Morgan duals of the complement DNFs.
func RangeCNF(r Range) (*CNF, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	c := NewCNF(r.Bits)
	if r.Empty() {
		c.AddClause(Clause{}) // unsatisfiable
		return c, nil
	}
	vars := make([]int, r.Bits)
	for i := range vars {
		vars[i] = i
	}
	// x ≥ Lo  ⇔  ¬(x ≤ Lo−1): negate each term of atMostDNF(Lo−1).
	if r.Lo > 0 {
		for _, t := range atMostDNF(vars, r.Lo-1) {
			c.AddClause(negateTerm(t))
		}
	}
	// x ≤ Hi  ⇔  ¬(x ≥ Hi+1).
	if r.Hi < uint64(1)<<uint(r.Bits)-1 {
		for _, t := range atLeastDNF(vars, r.Hi+1) {
			c.AddClause(negateTerm(t))
		}
	}
	return c, nil
}

// MultiRangeCNF builds the CNF of a d-dimensional range as the conjunction
// of per-dimension CNFs — size O(n·d), contrasting with the DNF's (2n)^d
// (Observations 1 and 2).
func MultiRangeCNF(m MultiRange) (*CNF, error) {
	if len(m.Dims) == 0 {
		return nil, fmt.Errorf("formula: empty multirange")
	}
	total := m.Bits()
	c := NewCNF(total)
	offset := 0
	for _, r := range m.Dims {
		rc, err := RangeCNF(r)
		if err != nil {
			return nil, err
		}
		for _, cl := range rc.Clauses {
			shifted := make(Clause, len(cl))
			for i, l := range cl {
				shifted[i] = Lit{Var: l.Var + offset, Neg: l.Neg}
			}
			c.AddClause(shifted)
		}
		offset += r.Bits
	}
	return c, nil
}

func negateTerm(t Term) Clause {
	cl := make(Clause, len(t))
	for i, l := range t {
		cl[i] = Lit{Var: l.Var, Neg: !l.Neg}
	}
	return cl
}

// TupleToAssignment encodes a d-dimensional tuple as an assignment over the
// blocks of a MultiRange layout.
func TupleToAssignment(vals []uint64, bitsPerDim []int) bitvec.BitVec {
	total := 0
	for _, b := range bitsPerDim {
		total += b
	}
	x := bitvec.New(total)
	offset := 0
	for d, v := range vals {
		n := bitsPerDim[d]
		for i := 0; i < n; i++ {
			if v&(1<<uint(n-1-i)) != 0 {
				x.Set(offset+i, true)
			}
		}
		offset += n
	}
	return x
}
