package sat

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// bruteCount counts assignments satisfying the CNF plus XOR rows.
func bruteCount(n int, cnf *formula.CNF, xorVars [][]int, xorRHS []bool) (int, bitvec.BitVec) {
	count := 0
	var witness bitvec.BitVec
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		if cnf != nil && !cnf.Eval(x) {
			continue
		}
		ok := true
		for i, vars := range xorVars {
			parity := false
			for _, u := range vars {
				if x.Get(u) {
					parity = !parity
				}
			}
			if parity != xorRHS[i] {
				ok = false
				break
			}
		}
		if ok {
			if count == 0 {
				witness = x
			}
			count++
		}
	}
	return count, witness
}

func buildSolver(n int, cnf *formula.CNF, xorVars [][]int, xorRHS []bool) *Solver {
	s := New(n)
	if cnf != nil {
		for _, cl := range cnf.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				return s
			}
		}
	}
	for i, vars := range xorVars {
		if !s.AddXOR(vars, xorRHS[i]) {
			return s
		}
	}
	return s
}

func TestSolveHandcrafted(t *testing.T) {
	// (x0 ∨ x1) ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2): implies x1, x2.
	s := New(3)
	s.AddClause([]formula.Lit{formula.Pos(0), formula.Pos(1)})
	s.AddClause([]formula.Lit{formula.Negl(0), formula.Pos(1)})
	s.AddClause([]formula.Lit{formula.Negl(1), formula.Pos(2)})
	m, ok := s.Solve()
	if !ok {
		t.Fatal("satisfiable formula reported UNSAT")
	}
	if !m.Get(1) || !m.Get(2) {
		t.Fatalf("model %v violates implications", m)
	}

	// x0 ∧ ¬x0 is UNSAT.
	u := New(1)
	u.AddClause([]formula.Lit{formula.Pos(0)})
	u.AddClause([]formula.Lit{formula.Negl(0)})
	if _, ok := u.Solve(); ok {
		t.Fatal("UNSAT formula reported SAT")
	}
}

func TestXORHandcrafted(t *testing.T) {
	// x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 ⊕ x2 = 1 is UNSAT (sum = 0 ≠ 1).
	s := New(3)
	s.AddXOR([]int{0, 1}, true)
	s.AddXOR([]int{1, 2}, true)
	if !s.AddXOR([]int{0, 2}, true) {
		// may already detect unsat at add time via propagation
		return
	}
	if _, ok := s.Solve(); ok {
		t.Fatal("inconsistent XOR system reported SAT")
	}

	// x0 ⊕ x1 ⊕ x2 = 0 with x0 = 1 forces x1 ⊕ x2 = 1.
	s2 := New(3)
	s2.AddXOR([]int{0, 1, 2}, false)
	s2.AddClause([]formula.Lit{formula.Pos(0)})
	m, ok := s2.Solve()
	if !ok {
		t.Fatal("UNSAT on satisfiable XOR system")
	}
	if m.Get(1) == m.Get(2) {
		t.Fatalf("model %v violates parity", m)
	}

	// Duplicate variables cancel: x0 ⊕ x0 ⊕ x1 = 1 means x1 = 1.
	s3 := New(2)
	s3.AddXOR([]int{0, 0, 1}, true)
	m, ok = s3.Solve()
	if !ok || !m.Get(1) {
		t.Fatal("duplicate folding broken")
	}

	// Empty XOR with rhs=1 is UNSAT.
	s4 := New(1)
	if s4.AddXOR(nil, true) {
		t.Fatal("empty XOR=1 accepted")
	}
}

func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		m := rng.Intn(5 * n)
		k := 2 + rng.Intn(2)
		cnf := formula.RandomKCNF(n, m, k, rng)
		want, _ := bruteCount(n, cnf, nil, nil)
		s := buildSolver(n, cnf, nil, nil)
		model, ok := s.Solve()
		if ok != (want > 0) {
			t.Fatalf("trial %d: SAT=%v, brute count=%d", trial, ok, want)
		}
		if ok && !cnf.Eval(model) {
			t.Fatalf("trial %d: returned non-model", trial)
		}
	}
}

func TestRandomCNFXORAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		m := rng.Intn(3 * n)
		cnf := formula.RandomKCNF(n, m, 2+rng.Intn(2), rng)
		nx := rng.Intn(n)
		var xorVars [][]int
		var xorRHS []bool
		for i := 0; i < nx; i++ {
			w := 1 + rng.Intn(n)
			vars := make([]int, w)
			for j := range vars {
				vars[j] = rng.Intn(n)
			}
			xorVars = append(xorVars, vars)
			xorRHS = append(xorRHS, rng.Bool())
		}
		want, _ := bruteCount(n, cnf, xorVars, xorRHS)
		s := buildSolver(n, cnf, xorVars, xorRHS)
		model, ok := s.Solve()
		if ok != (want > 0) {
			t.Fatalf("trial %d (n=%d): SAT=%v, brute=%d", trial, n, ok, want)
		}
		if ok {
			if !cnf.Eval(model) {
				t.Fatalf("trial %d: model violates CNF", trial)
			}
			for i, vars := range xorVars {
				parity := false
				for _, u := range vars {
					if model.Get(u) {
						parity = !parity
					}
				}
				if parity != xorRHS[i] {
					t.Fatalf("trial %d: model violates XOR %d", trial, i)
				}
			}
		}
	}
}

func TestEnumerateModelsExact(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(6)
		m := rng.Intn(2 * n)
		cnf := formula.RandomKCNF(n, m, 2, rng)
		var xorVars [][]int
		var xorRHS []bool
		if rng.Bool() {
			xorVars = append(xorVars, []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)})
			xorRHS = append(xorRHS, rng.Bool())
		}
		want, _ := bruteCount(n, cnf, xorVars, xorRHS)
		s := buildSolver(n, cnf, xorVars, xorRHS)
		seen := map[bitvec.Fingerprint]bool{}
		got := s.EnumerateModels(-1, func(model bitvec.BitVec) bool {
			if seen[model.Fingerprint()] {
				t.Fatal("duplicate model enumerated")
			}
			seen[model.Fingerprint()] = true
			return true
		})
		if got != want {
			t.Fatalf("trial %d (n=%d m=%d): enumerated %d, brute %d", trial, n, m, got, want)
		}
	}
}

func TestEnumerateLimitAndEarlyStop(t *testing.T) {
	s := New(6) // free formula: 64 models
	if got := s.EnumerateModels(10, func(bitvec.BitVec) bool { return true }); got != 10 {
		t.Fatalf("limit: got %d", got)
	}
	s2 := New(6)
	calls := 0
	s2.EnumerateModels(-1, func(bitvec.BitVec) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("early stop: %d calls", calls)
	}
}

func TestPlantedLargerInstances(t *testing.T) {
	// Larger-than-brute-force satisfiable instances; checks the model, not
	// the count.
	rng := stats.NewRNG(19)
	for trial := 0; trial < 10; trial++ {
		n := 60
		cnf, _ := formula.PlantedKCNF(n, 250, 3, rng)
		s := buildSolver(n, cnf, nil, nil)
		model, ok := s.Solve()
		if !ok {
			t.Fatal("planted instance reported UNSAT")
		}
		if !cnf.Eval(model) {
			t.Fatal("returned non-model on planted instance")
		}
	}
}

func TestHashConstraintScenario(t *testing.T) {
	// The model counter's actual query shape: planted CNF conjoined with
	// random XOR constraints from a hash function; verify against brute
	// force.
	rng := stats.NewRNG(23)
	for trial := 0; trial < 50; trial++ {
		n := 10
		cnf, _ := formula.PlantedKCNF(n, 20, 3, rng)
		var xorVars [][]int
		var xorRHS []bool
		for i := 0; i < 4; i++ {
			var vars []int
			for v := 0; v < n; v++ {
				if rng.Bool() {
					vars = append(vars, v)
				}
			}
			xorVars = append(xorVars, vars)
			xorRHS = append(xorRHS, rng.Bool())
		}
		want, _ := bruteCount(n, cnf, xorVars, xorRHS)
		s := buildSolver(n, cnf, xorVars, xorRHS)
		got := s.EnumerateModels(-1, func(bitvec.BitVec) bool { return true })
		if got != want {
			t.Fatalf("trial %d: enumerated %d, brute %d", trial, got, want)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	rng := stats.NewRNG(29)
	cnf := formula.RandomKCNF(30, 120, 3, rng)
	s := buildSolver(30, cnf, nil, nil)
	s.Solve()
	st := s.Stats()
	if st.Decisions == 0 && st.Propagations == 0 {
		t.Error("solver claims to have done no work")
	}
}

func TestAddClauseValidation(t *testing.T) {
	s := New(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range literal accepted")
		}
	}()
	s.AddClause([]formula.Lit{formula.Pos(5)})
}
