package sat

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// Differential harness: random small CNF-XOR instances are cross-checked
// against internal/exact's brute-force enumeration. SAT/UNSAT verdicts,
// model validity, and EnumerateModels counts must match exactly. The same
// checker backs both the seeded table test (10k instances, sharded across
// CPUs) and the fuzz target below.

// instance is a CNF-XOR problem in a solver-independent form.
type instance struct {
	n       int
	cnf     *formula.CNF
	xorVars [][]int
	xorRHS  []bool
}

// eval reports whether x satisfies every clause and XOR row.
func (in *instance) eval(x bitvec.BitVec) bool {
	if in.cnf != nil && !in.cnf.Eval(x) {
		return false
	}
	for i, vars := range in.xorVars {
		parity := false
		for _, v := range vars {
			if x.Get(v) {
				parity = !parity
			}
		}
		if parity != in.xorRHS[i] {
			return false
		}
	}
	return true
}

// build loads the instance into a fresh solver, returning nil when an add
// already established unsatisfiability.
func (in *instance) build() (*Solver, bool) {
	s := New(in.n)
	if in.cnf != nil {
		for _, cl := range in.cnf.Clauses {
			if !s.AddClause([]formula.Lit(cl)) {
				return s, false
			}
		}
	}
	for i, vars := range in.xorVars {
		if !s.AddXOR(vars, in.xorRHS[i]) {
			return s, false
		}
	}
	return s, true
}

// checkInstance is the differential core: exact.Exhaustive is ground truth
// for the verdict and the model count; returned models must evaluate true.
func checkInstance(t testing.TB, in *instance) {
	t.Helper()
	want := int(exact.Exhaustive(in.n, in.eval))
	s, ok := in.build()
	if !ok {
		if want != 0 {
			t.Fatalf("add-time UNSAT but %d models exist (n=%d)", want, in.n)
		}
		return
	}
	model, sat := s.Solve()
	if sat != (want > 0) {
		t.Fatalf("verdict SAT=%v, exact count=%d (n=%d)", sat, want, in.n)
	}
	if sat && !in.eval(model) {
		t.Fatalf("returned non-model %v (n=%d)", model, in.n)
	}
	// Count via enumeration on a fresh solver (the first one now carries
	// learned state; using a fresh one also cross-checks reproducibility).
	s2, ok := in.build()
	got := 0
	if ok {
		seen := map[bitvec.Fingerprint]bool{}
		got = s2.EnumerateModels(-1, func(m bitvec.BitVec) bool {
			if !in.eval(m) {
				t.Fatalf("enumerated non-model %v (n=%d)", m, in.n)
			}
			if seen[m.Fingerprint()] {
				t.Fatalf("duplicate model %v (n=%d)", m, in.n)
			}
			seen[m.Fingerprint()] = true
			return true
		})
	}
	if got != want {
		t.Fatalf("enumerated %d models, exact %d (n=%d)", got, want, in.n)
	}
	checkScopedEnumeration(t, in)
	// CNF-only instances additionally cross-check the counting DPLL.
	if len(in.xorVars) == 0 && in.cnf != nil {
		if dp := int(exact.CountCNF(in.cnf)); dp != want {
			t.Fatalf("exact.CountCNF=%d, exact.Exhaustive=%d", dp, want)
		}
	}
}

// checkScopedEnumeration runs several selector-scoped EnumerateBlocking
// queries on one solver, the oracle's incremental protocol: each query
// assumes random literals and its own blocking selector false, projects
// onto the first nBlock < NVars variables, and retires its blocks by
// pinning the selector afterwards. The solver also carries one free
// auxiliary variable past the instance's, which half the queries
// assume: a model that decides it, or any variable at or past nBlock,
// must be blocked over the whole projection, so both the decision blocks
// and the full-clause fallback run. Each query must visit every
// projection of a model consistent with its assumptions exactly once.
func checkScopedEnumeration(t testing.TB, in *instance) {
	t.Helper()
	s, ok := in.build()
	if !ok {
		return
	}
	aux := s.AddVar()
	rng := stats.NewRNG(instanceSeed(in))
	for q := 0; q < 4; q++ {
		nBlock := 1 + rng.Intn(in.n)
		var assumps []formula.Lit
		for i, na := 0, rng.Intn(3); i < na; i++ {
			assumps = append(assumps, formula.Lit{Var: rng.Intn(in.n), Neg: rng.Bool()})
		}
		if rng.Bool() {
			assumps = append(assumps, formula.Lit{Var: aux, Neg: rng.Bool()})
		}
		want := map[uint64]bool{}
		x := bitvec.New(in.n)
		for v := uint64(0); v < 1<<uint(in.n); v++ {
			x.SetUint64(v)
			if in.eval(x) && holds(assumps, x) {
				want[x.Prefix(nBlock).Uint64()] = true
			}
		}
		sel := s.AddVar()
		got := map[uint64]bool{}
		count, exhausted := s.EnumerateBlocking(-1, nBlock, []formula.Lit{{Var: sel}}, func(m bitvec.BitVec) bool {
			key := m.Uint64()
			if got[key] {
				t.Fatalf("query %d: projection %v visited twice (n=%d, nBlock=%d)", q, m, in.n, nBlock)
			}
			got[key] = true
			return true
		}, append(assumps, formula.Lit{Var: sel, Neg: true})...)
		if !exhausted || count != len(want) {
			t.Fatalf("query %d: %d projections (exhausted=%v), want %d (n=%d, nBlock=%d, assumptions %v)",
				q, count, exhausted, len(want), in.n, nBlock, assumps)
		}
		for key := range got {
			if !want[key] {
				t.Fatalf("query %d: visited a projection no model has (n=%d, nBlock=%d)", q, in.n, nBlock)
			}
		}
		if !s.AddClause([]formula.Lit{{Var: sel}}) {
			return // unsatisfiable at level 0: no later query has models
		}
		if q == 1 {
			s.Simplify()
		}
	}
}

// holds reports whether x satisfies the assumption literals on its
// variables; a literal on the free auxiliary variable always holds.
func holds(assumps []formula.Lit, x bitvec.BitVec) bool {
	for _, l := range assumps {
		if l.Var < x.Len() && x.Get(l.Var) == l.Neg {
			return false
		}
	}
	return true
}

// instanceSeed derives the query RNG's seed from the instance, so the
// fuzz target stays a function of its input.
func instanceSeed(in *instance) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, in.n, in.cnf, in.xorVars, in.xorRHS)
	return h.Sum64()
}

// randomInstance draws a small CNF-XOR instance.
func randomInstance(rng *stats.RNG) *instance {
	n := 3 + rng.Intn(7) // 3..9
	in := &instance{n: n}
	if rng.Intn(8) != 0 { // occasionally pure-XOR
		in.cnf = formula.RandomKCNF(n, rng.Intn(3*n), 1+rng.Intn(3), rng)
	}
	for i, nx := 0, rng.Intn(4); i < nx; i++ {
		w := 1 + rng.Intn(n)
		vars := make([]int, w)
		for j := range vars {
			vars[j] = rng.Intn(n)
		}
		in.xorVars = append(in.xorVars, vars)
		in.xorRHS = append(in.xorRHS, rng.Bool())
	}
	return in
}

// TestDifferentialSolverVsExact runs 10 000 seeded random instances,
// sharded across CPUs.
func TestDifferentialSolverVsExact(t *testing.T) {
	const shards, perShard = 8, 1250
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(0xd1ff + uint64(shard))
			for i := 0; i < perShard; i++ {
				checkInstance(t, randomInstance(rng))
			}
		})
	}
}

// decodeInstance derives a bounded CNF-XOR instance from fuzz bytes:
// byte 0 fixes n; each following control byte opens a clause (high bit 0)
// or an XOR row (high bit 1) whose literals are drawn from the next bytes.
func decodeInstance(data []byte) (*instance, bool) {
	if len(data) < 2 {
		return nil, false
	}
	n := 3 + int(data[0]%6) // 3..8
	in := &instance{n: n, cnf: formula.NewCNF(n)}
	i := 1
	for i < len(data) {
		c := data[i]
		i++
		w := 1 + int((c>>4)&3) // 1..4 literals
		if i+w > len(data) {
			break
		}
		if c&0x80 == 0 {
			if in.cnf.Size() >= 40 {
				break
			}
			lits := make([]formula.Lit, w)
			for j := 0; j < w; j++ {
				b := data[i+j]
				lits[j] = formula.Lit{Var: int(b) % n, Neg: b&0x80 != 0}
			}
			in.cnf.AddClause(formula.Clause(lits))
		} else {
			if len(in.xorVars) >= 6 {
				break
			}
			vars := make([]int, w)
			for j := 0; j < w; j++ {
				vars[j] = int(data[i+j]) % n
			}
			in.xorVars = append(in.xorVars, vars)
			in.xorRHS = append(in.xorRHS, c&1 == 1)
		}
		i += w
	}
	return in, true
}

// FuzzSolverVsExact fuzzes the solver against brute force over the decoded
// instance space. Seed corpus lives in testdata/fuzz/FuzzSolverVsExact.
func FuzzSolverVsExact(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x03, 0x84, 0x91, 0x02, 0x01})
	f.Add([]byte{0x04, 0xb3, 0x00, 0x01, 0x02, 0x22, 0x85, 0x03})
	rng := stats.NewRNG(0xfa22)
	for i := 0; i < 4; i++ {
		buf := make([]byte, 8+rng.Intn(24))
		for j := range buf {
			buf[j] = byte(rng.Uint64())
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeInstance(data)
		if !ok {
			return
		}
		checkInstance(t, in)
	})
}
