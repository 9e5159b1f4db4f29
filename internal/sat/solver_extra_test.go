package sat

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
)

// TestPureXORAgainstGaussianElimination: satisfiability of a pure XOR
// system must match gf2's Gaussian elimination, including at sizes far
// beyond brute force.
func TestPureXORAgainstGaussianElimination(t *testing.T) {
	rng := stats.NewRNG(501)
	for trial := 0; trial < 60; trial++ {
		// Overdetermined rows are caught instantly by the echelon basis;
		// consistent dense systems still exercise CDCL search, so sizes
		// are kept moderate (decision order on pivot variables is the
		// known hard case for clause learning).
		n := 16 + rng.Intn(24)
		rows := rng.Intn(n + 20)
		sys := gf2.NewSystem(n)
		s := New(n)
		ok := true
		for r := 0; r < rows; r++ {
			vec := bitvec.Random(n, rng.Uint64)
			rhs := rng.Bool()
			sys.Add(vec, rhs)
			var vars []int
			for i := 0; i < n; i++ {
				if vec.Get(i) {
					vars = append(vars, i)
				}
			}
			if !s.AddXOR(vars, rhs) {
				ok = false
				break
			}
		}
		var sat bool
		if ok {
			_, sat = s.Solve()
		}
		if sat != sys.Consistent() {
			t.Fatalf("trial %d (n=%d rows=%d): solver=%v gauss=%v", trial, n, rows, sat, sys.Consistent())
		}
		if sat {
			// Model must satisfy the system (checked via gf2 equations).
			model, _ := New(n), false
			_ = model
			s2 := New(n)
			for _, eq := range sys.Equations() {
				var vars []int
				for i := 0; i < n; i++ {
					if eq.A.Get(i) {
						vars = append(vars, i)
					}
				}
				s2.AddXOR(vars, eq.RHS)
			}
			m2, ok2 := s2.Solve()
			if !ok2 {
				t.Fatal("reduced system unsat but original sat")
			}
			for _, eq := range sys.Equations() {
				if eq.A.Dot(m2) != eq.RHS {
					t.Fatal("model violates reduced equation")
				}
			}
		}
	}
}

// TestXORCountMatchesRank: enumerating a pure XOR system's models must
// yield exactly 2^(n−rank).
func TestXORCountMatchesRank(t *testing.T) {
	rng := stats.NewRNG(503)
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		rows := rng.Intn(n + 2)
		sys := gf2.NewSystem(n)
		s := New(n)
		feasible := true
		for r := 0; r < rows; r++ {
			vec := bitvec.Random(n, rng.Uint64)
			rhs := rng.Bool()
			sys.Add(vec, rhs)
			var vars []int
			for i := 0; i < n; i++ {
				if vec.Get(i) {
					vars = append(vars, i)
				}
			}
			if !s.AddXOR(vars, rhs) {
				feasible = false
				break
			}
		}
		want := 0
		if feasible && sys.Consistent() {
			want = 1 << uint(n-sys.Rank())
		}
		got := 0
		if feasible {
			got = s.EnumerateModels(-1, func(bitvec.BitVec) bool { return true })
		}
		if got != want {
			t.Fatalf("trial %d: %d models, want %d", trial, got, want)
		}
	}
}

// TestDeepBacktracking exercises long implication chains: a chain of
// binary clauses forcing all variables from one decision.
func TestDeepBacktracking(t *testing.T) {
	n := 200
	s := New(n)
	for i := 0; i+1 < n; i++ {
		// xi → xi+1
		s.AddClause([]formula.Lit{formula.Negl(i), formula.Pos(i + 1)})
	}
	s.AddClause([]formula.Lit{formula.Pos(0)})
	m, ok := s.Solve()
	if !ok {
		t.Fatal("chain UNSAT")
	}
	for i := 0; i < n; i++ {
		if !m.Get(i) {
			t.Fatalf("chain did not propagate to x%d", i)
		}
	}
	// Now force a contradiction at the end of the chain.
	s2 := New(n)
	for i := 0; i+1 < n; i++ {
		s2.AddClause([]formula.Lit{formula.Negl(i), formula.Pos(i + 1)})
	}
	s2.AddClause([]formula.Lit{formula.Pos(0)})
	if s2.AddClause([]formula.Lit{formula.Negl(n - 1)}) {
		if _, ok := s2.Solve(); ok {
			t.Fatal("contradictory chain SAT")
		}
	}
}

// TestSolveAfterUnsatStable: once UNSAT, the solver stays UNSAT and
// further API calls are safe.
func TestSolveAfterUnsatStable(t *testing.T) {
	s := New(2)
	s.AddClause([]formula.Lit{formula.Pos(0)})
	s.AddClause([]formula.Lit{formula.Negl(0)})
	for i := 0; i < 3; i++ {
		if _, ok := s.Solve(); ok {
			t.Fatal("UNSAT solver turned SAT")
		}
	}
	if s.AddClause([]formula.Lit{formula.Pos(1)}) {
		t.Fatal("AddClause succeeded on UNSAT solver")
	}
	if s.AddXOR([]int{1}, true) {
		t.Fatal("AddXOR succeeded on UNSAT solver")
	}
}

// TestWideXORRows stresses the XOR watch machinery with rows spanning all
// variables, cross-validated against brute force.
func TestWideXORRows(t *testing.T) {
	rng := stats.NewRNG(509)
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(6)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		rhs1, rhs2 := rng.Bool(), rng.Bool()
		want, _ := bruteCount(n, cnf, [][]int{all, all[:n-1]}, []bool{rhs1, rhs2})
		s := buildSolver(n, cnf, nil, nil)
		s.AddXOR(all, rhs1)
		s.AddXOR(all[:n-1], rhs2)
		got := s.EnumerateModels(-1, func(bitvec.BitVec) bool { return true })
		if got != want {
			t.Fatalf("trial %d: %d models, want %d", trial, got, want)
		}
	}
}

// BlockModel adds the clause forbidding the given assignment (over the
// model's variables), enabling AllSAT-style enumeration. Returns false if
// the formula becomes unsatisfiable.
func (s *Solver) BlockModel(model bitvec.BitVec) bool {
	n := model.Len()
	if n > s.nVars {
		n = s.nVars
	}
	lits := make([]formula.Lit, n)
	for v := 0; v < n; v++ {
		lits[v] = formula.Lit{Var: v, Neg: model.Get(v)}
	}
	return s.AddClause(lits)
}

// EnumerateModels visits up to limit models (limit < 0 for all) consistent
// with the assumptions, blocking each before searching for the next. visit
// returning false stops early. It returns the number of models visited.
// Blocking clauses are permanent: they also exclude the visited models from
// later Solve calls.
func (s *Solver) EnumerateModels(limit int, visit func(bitvec.BitVec) bool, assumps ...formula.Lit) int {
	count, _ := s.EnumerateBlocking(limit, s.nVars, nil, visit, assumps...)
	return count
}
