package sat

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// Regression tests for the incremental API: Solve under assumptions,
// AddVar-based activation selectors, and the interaction of blocking with
// assumptions.

// TestSolveAssumptionsVsBruteForce: Solve(assumps...) must agree with brute
// force over the formula with the assumed variables fixed, and the model
// must honour the assumptions.
func TestSolveAssumptionsVsBruteForce(t *testing.T) {
	rng := stats.NewRNG(601)
	for trial := 0; trial < 400; trial++ {
		in := randomInstance(rng)
		na := rng.Intn(in.n + 1)
		assumps := make([]formula.Lit, 0, na)
		used := map[int]bool{}
		for len(assumps) < na {
			v := rng.Intn(in.n)
			if used[v] {
				continue
			}
			used[v] = true
			assumps = append(assumps, formula.Lit{Var: v, Neg: rng.Bool()})
		}
		want := int(exact.Exhaustive(in.n, func(x bitvec.BitVec) bool {
			for _, a := range assumps {
				if x.Get(a.Var) == a.Neg {
					return false
				}
			}
			return in.eval(x)
		}))
		s, ok := in.build()
		if !ok {
			if want != 0 {
				t.Fatalf("trial %d: add-time UNSAT with %d assumed models", trial, want)
			}
			continue
		}
		model, sat := s.Solve(assumps...)
		if sat != (want > 0) {
			t.Fatalf("trial %d: SAT=%v under assumptions, brute=%d", trial, sat, want)
		}
		if sat {
			for _, a := range assumps {
				if model.Get(a.Var) == a.Neg {
					t.Fatalf("trial %d: model violates assumption %v", trial, a)
				}
			}
			if !in.eval(model) {
				t.Fatalf("trial %d: model violates formula", trial)
			}
		}
	}
}

// TestAssumptionsFullyUndone: a Solve under assumptions must leave no trace
// — subsequent unassumed Solve calls and enumerations see the full model
// set, and repeating the sequence is deterministic.
func TestAssumptionsFullyUndone(t *testing.T) {
	rng := stats.NewRNG(607)
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng)
		free := int(exact.Exhaustive(in.n, in.eval))
		s, ok := in.build()
		if !ok {
			continue
		}
		v := rng.Intn(in.n)
		for round := 0; round < 3; round++ {
			s.Solve(formula.Lit{Var: v, Neg: round%2 == 0})
		}
		s2, _ := in.build()
		count := s2.EnumerateModels(-1, func(bitvec.BitVec) bool { return true })
		if count != free {
			t.Fatalf("trial %d: fresh enumeration %d != brute %d", trial, count, free)
		}
		// The solver that ran assumed Solves must agree once enumerated.
		got := s.EnumerateModels(-1, func(bitvec.BitVec) bool { return true })
		if got != free {
			t.Fatalf("trial %d: post-assumption enumeration %d != brute %d", trial, got, free)
		}
	}
}

// TestActivationSelectors exercises the oracle's incremental protocol at
// the solver level: an XOR row extended with a fresh AddVar selector
// constrains the formula only while ¬sel is assumed.
func TestActivationSelectors(t *testing.T) {
	rng := stats.NewRNG(613)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		s := New(n)
		okAdd := true
		for _, cl := range cnf.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				okAdd = false
				break
			}
		}
		if !okAdd {
			continue
		}
		var vars []int
		for v := 0; v < n; v++ {
			if rng.Bool() {
				vars = append(vars, v)
			}
		}
		rhs := rng.Bool()
		sel := s.AddVar()
		if !s.AddXOR(append(append([]int(nil), vars...), sel), rhs) {
			t.Fatalf("trial %d: selector row rejected", trial)
		}
		parityOK := func(x bitvec.BitVec) bool {
			p := false
			for _, v := range vars {
				if x.Get(v) {
					p = !p
				}
			}
			return p == rhs
		}
		wantOn := int(exact.Exhaustive(n, func(x bitvec.BitVec) bool { return cnf.Eval(x) && parityOK(x) }))
		wantOff := int(exact.Exhaustive(n, cnf.Eval))
		_, satOn := s.Solve(formula.Lit{Var: sel, Neg: true})
		if satOn != (wantOn > 0) {
			t.Fatalf("trial %d: activated row SAT=%v want %v", trial, satOn, wantOn > 0)
		}
		// Without the assumption the row is inert: every model of φ
		// extends (the selector absorbs the parity).
		seen := map[bitvec.Fingerprint]bool{}
		got := s.EnumerateModels(-1, func(m bitvec.BitVec) bool {
			seen[m.Prefix(n).Fingerprint()] = true
			return true
		})
		if got != wantOff || len(seen) != wantOff {
			t.Fatalf("trial %d: inert-row enumeration %d (distinct x %d), want %d",
				trial, got, len(seen), wantOff)
		}
	}
}

// TestBlockingWithAssumptions: EnumerateBlocking with an extra selector
// literal scopes the blocks to queries that assume it; pinning the selector
// retires them.
func TestBlockingWithAssumptions(t *testing.T) {
	rng := stats.NewRNG(617)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		want := int(exact.Exhaustive(n, cnf.Eval))
		s := New(n)
		okAdd := true
		for _, cl := range cnf.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				okAdd = false
				break
			}
		}
		if !okAdd {
			continue
		}
		// First query: enumerate everything under a blocking selector.
		q1 := s.AddVar()
		got1, exhausted := s.EnumerateBlocking(-1, n, []formula.Lit{{Var: q1}},
			func(bitvec.BitVec) bool { return true }, formula.Lit{Var: q1, Neg: true})
		if got1 != want || !exhausted {
			t.Fatalf("trial %d: first query %d (exhausted=%v), want %d", trial, got1, exhausted, want)
		}
		// Retire and re-count with a second selector: blocks must not leak.
		if want > 0 && !s.AddClause([]formula.Lit{{Var: q1}}) {
			t.Fatalf("trial %d: retiring selector failed", trial)
		}
		q2 := s.AddVar()
		got2, _ := s.EnumerateBlocking(-1, n, []formula.Lit{{Var: q2}},
			func(bitvec.BitVec) bool { return true }, formula.Lit{Var: q2, Neg: true})
		if got2 != want {
			t.Fatalf("trial %d: second query %d, want %d", trial, got2, want)
		}
	}
}

// TestAddClauseBetweenSolves: clauses added after a Solve constrain later
// calls, matching brute force.
func TestAddClauseBetweenSolves(t *testing.T) {
	rng := stats.NewRNG(619)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		extra := formula.RandomKCNF(n, 1+rng.Intn(n), 2, rng)
		s := New(n)
		okAdd := true
		for _, cl := range cnf.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				okAdd = false
				break
			}
		}
		if !okAdd {
			continue
		}
		s.Solve()
		for _, cl := range extra.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				break
			}
		}
		want := exact.Exhaustive(n, func(x bitvec.BitVec) bool { return cnf.Eval(x) && extra.Eval(x) }) > 0
		_, sat := s.Solve()
		if sat != want {
			t.Fatalf("trial %d: incremental SAT=%v, brute=%v", trial, sat, want)
		}
	}
}

// TestReduceDBDifferential forces learned-database reduction on every
// restart (maxLearnts dialled to near zero) and checks that verdicts and
// enumeration counts still match brute force — deletion and arena
// compaction must never lose problem clauses or soundness.
func TestReduceDBDifferential(t *testing.T) {
	rng := stats.NewRNG(641)
	deleted := int64(0)
	for trial := 0; trial < 150; trial++ {
		in := randomInstance(rng)
		want := int(exact.Exhaustive(in.n, in.eval))
		s, ok := in.build()
		if !ok {
			continue
		}
		s.maxLearnts = 1
		got := s.EnumerateModels(-1, func(m bitvec.BitVec) bool {
			if !in.eval(m) {
				t.Fatalf("trial %d: non-model under reduction", trial)
			}
			return true
		})
		if got != want {
			t.Fatalf("trial %d: enumerated %d, brute %d", trial, got, want)
		}
		deleted += s.Stats().Deleted
	}
	// Larger conflict-heavy instances must actually exercise deletion.
	for trial := 0; trial < 5; trial++ {
		cnf := formula.RandomKCNF(60, 255, 3, rng)
		s := New(60)
		okAdd := true
		for _, cl := range cnf.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				okAdd = false
				break
			}
		}
		if !okAdd {
			continue
		}
		s.maxLearnts = 8
		s.Solve()
		deleted += s.Stats().Deleted
	}
	if deleted == 0 {
		t.Fatal("reduceDB never deleted a clause under maxLearnts pressure")
	}
}

// TestStatsCounters: the new counters move and aggregate.
func TestStatsCounters(t *testing.T) {
	rng := stats.NewRNG(631)
	cnf := formula.RandomKCNF(40, 170, 3, rng)
	s := New(40)
	for _, cl := range cnf.Clauses {
		if !s.AddClause([]formula.Lit(cl)) {
			break
		}
	}
	s.Solve()
	st := s.Stats()
	if st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("no work recorded: %+v", st)
	}
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.Propagations != 2*st.Propagations || sum.Deleted != 2*st.Deleted {
		t.Errorf("Stats.Add arithmetic wrong: %+v vs %+v", sum, st)
	}
}
