// Package encode implements Proposition 3's NP oracle concretely: it
// Tseitin-encodes the evaluation of an s-wise independent polynomial hash
// h(x) = Σ cᵢ·x^i over GF(2^m) into CNF + XOR constraints, so the CDCL
// solver can decide "∃ x ⊨ φ with TrailZero(h(x)) ≥ t" for CNF φ.
//
// The paper leaves this oracle abstract (and notes no efficient DNF
// implementation is known); this package makes the CNF case executable:
//
//   - each field multiplication Pᵢ₊₁ = Pᵢ ⊗ x contributes m² AND gates
//     (fresh variables gₐᵦ = Pᵢ[a] ∧ x[b], three clauses each);
//   - modular reduction by the field polynomial is linear over GF(2), so
//     each output bit of a product — and each bit of the final sum
//     Σ cᵢ·Pᵢ — is one native XOR row (bit k of cᵢ·x^j mod f is a fixed
//     constant the encoder reads off the field tables);
//   - "t trailing zeros" pins the t low field bits of h(x) to zero, again
//     XOR rows.
//
// The resulting instances are exactly the CNF-XOR queries the solver's
// native Gaussian propagation is built for.
package encode

import (
	"slices"

	"mcf0/internal/formula"
	"mcf0/internal/gf2poly"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/sat"
)

// PolyTester answers trailing-zero queries about polynomial hashes over a
// CNF formula via the SAT solver. It implements oracle.TrailingZeroTester.
//
// One solver serves every query about the same h, the incremental
// protocol of oracle.CNFSource: the circuit of h is built once, keyed by
// h's coefficients, and each hash output bit is installed once, on first
// use, as the XOR row bit ⊕ sel = 0 with its own activation selector sel.
// A query for t trailing zeros assumes the selectors of the t low bits
// false; a free selector merely equals its bit, so rows installed for a
// larger t constrain nothing. MaxTrailingZeros's binary search over t
// thus builds each h once instead of once per probe.
type PolyTester struct {
	cnf     *formula.CNF
	queries int64

	coeffs   []uint64 // the hash the solver encodes; nil before the first query
	solver   *sat.Solver
	hashBits []xorExpr
	rows     int // hash bits installed: the rows of bits 0..rows−1
	assumps  []formula.Lit
}

// NewPolyTester wraps a CNF formula.
func NewPolyTester(c *formula.CNF) *PolyTester { return &PolyTester{cnf: c} }

// Queries returns the number of SAT calls made.
func (p *PolyTester) Queries() int64 { return p.queries }

// ForkTester returns an independent tester over the same formula with its
// own SAT-call meter and its own solver.
func (p *PolyTester) ForkTester() oracle.TrailingZeroTester { return NewPolyTester(p.cnf) }

// MaxTrailingZeros answers FindMaxRange by oracle.SearchTrailingZeros
// over exists. h must come from hash.NewPoly (its coefficients are needed
// for the encoding).
func (p *PolyTester) MaxTrailingZeros(h hash.Func, maxT int) int {
	return oracle.SearchTrailingZeros(maxT, func(t int) bool { return p.exists(h, t) })
}

// exists reports whether some model of φ hashes, under the polynomial
// hash h, to a value with at least t trailing zero bits: one SAT call.
func (p *PolyTester) exists(h hash.Func, t int) bool {
	coeffs, ok := hash.PolyCoefficients(h)
	if !ok {
		panic("encode: hash is not a polynomial-family function")
	}
	n := p.cnf.N
	if h.InBits() != n {
		panic("encode: hash width mismatch")
	}
	p.queries++
	if p.coeffs == nil || !slices.Equal(p.coeffs, coeffs) {
		p.coeffs = slices.Clone(coeffs)
		p.solver, p.hashBits = buildHashCircuit(p.cnf, coeffs)
		p.rows = 0
	}
	if p.solver == nil {
		return false // base formula already unsatisfiable
	}
	// Install the rows the t low bits still lack, then enable them.
	for ; p.rows < t; p.rows++ {
		b := p.hashBits[p.rows]
		if !p.solver.AddXOR(append(slices.Clip(b.vars), b.sel), b.rhs) {
			return false
		}
	}
	p.assumps = p.assumps[:0]
	for _, b := range p.hashBits[:t] {
		p.assumps = append(p.assumps, formula.Lit{Var: b.sel, Neg: true})
	}
	_, sat := p.solver.Solve(p.assumps...)
	return sat
}

// xorExpr is an XOR-of-variables-equals-constant description of one bit,
// with the activation selector that pins it to zero.
type xorExpr struct {
	sel  int
	vars []int
	rhs  bool // the constant term: XOR(vars) = rhs makes the bit zero
}

// buildHashCircuit constructs a solver containing φ plus the evaluation
// circuit of h(x) = Σ cᵢ·x^i over GF(2^n), returning per-bit XOR
// descriptions of the hash output. Field bit j of the input element is
// formula variable n−1−j (the MSB-first integer convention of
// bitvec.Uint64, matching hash.Poly's evaluation).
func buildHashCircuit(cnf *formula.CNF, coeffs []uint64) (*sat.Solver, []xorExpr) {
	n := cnf.N
	field := gf2poly.NewField(n)
	s := len(coeffs)

	// Variable budget: n formula vars, then for each power i = 2..s−1 an
	// m-bit register plus m² AND gates.
	powerRegs := 0
	if s > 2 {
		powerRegs = s - 2
	}
	// Then one activation selector per hash bit. Selectors allocated here,
	// not by AddVar, are base variables, so each hash-bit row is reduced
	// against the circuit's XOR basis when it is installed.
	total := n + powerRegs*(n+n*n)
	solver := sat.New(total + n)
	for _, cl := range cnf.Clauses {
		if !solver.AddClause([]formula.Lit(cl)) {
			return nil, nil
		}
	}

	// inputBit(j) is the solver variable holding field bit j of x.
	inputBit := func(j int) int { return n - 1 - j }

	// prev holds the variables of P_i (bits of x^i); start with P_1 = x.
	prev := make([]int, n)
	for j := 0; j < n; j++ {
		prev[j] = inputBit(j)
	}
	// powers[i] = variables of x^i for i ≥ 1.
	powers := [][]int{nil, prev}

	next := n // next fresh variable
	for i := 2; i < s; i++ {
		reg := make([]int, n)
		for j := range reg {
			reg[j] = next
			next++
		}
		gate := make([][]int, n) // gate[a][b] = P_{i-1}[a] ∧ x[b]
		for a := 0; a < n; a++ {
			gate[a] = make([]int, n)
			for b := 0; b < n; b++ {
				g := next
				next++
				gate[a][b] = g
				addAND(solver, g, powers[i-1][a], inputBit(b))
			}
		}
		// reg[k] = XOR over (a, b) with bit k of x^(a+b) mod f set.
		for k := 0; k < n; k++ {
			vars := []int{reg[k]}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if field.Pow(2, uint64(a+b))&(1<<uint(k)) != 0 {
						vars = append(vars, gate[a][b])
					}
				}
			}
			if !solver.AddXOR(vars, false) {
				return nil, nil
			}
		}
		powers = append(powers, reg)
	}

	// h(x) bit k = bit k of c₀ ⊕ XOR over i ≥ 1, j of
	// [bit k of cᵢ·x^j mod f]·Pᵢ[j].
	hashBits := make([]xorExpr, n)
	for k := 0; k < n; k++ {
		var vars []int
		rhs := false
		if len(coeffs) > 0 && coeffs[0]&(1<<uint(k)) != 0 {
			rhs = true
		}
		for i := 1; i < s; i++ {
			ci := coeffs[i]
			for j := 0; j < n; j++ {
				// Constant multiply-by-cᵢ matrix column j.
				if field.Mul(ci, 1<<uint(j))&(1<<uint(k)) != 0 {
					vars = append(vars, powers[i][j])
				}
			}
		}
		hashBits[k] = xorExpr{sel: total + k, vars: vars, rhs: rhs}
	}
	return solver, hashBits
}

// addAND emits the three clauses of out = a ∧ b.
func addAND(s *sat.Solver, out, a, b int) {
	s.AddClause([]formula.Lit{{Var: out, Neg: true}, {Var: a}})
	s.AddClause([]formula.Lit{{Var: out, Neg: true}, {Var: b}})
	s.AddClause([]formula.Lit{{Var: a, Neg: true}, {Var: b, Neg: true}, {Var: out}})
}
