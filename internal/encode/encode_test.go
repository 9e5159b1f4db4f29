package encode

import (
	"math"
	"testing"

	"mcf0/internal/counting"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// TestPolyTesterAgreesWithExhaustive is the load-bearing cross-validation:
// the Tseitin-encoded SAT oracle must answer every (h, t) query exactly as
// brute-force enumeration does.
func TestPolyTesterAgreesWithExhaustive(t *testing.T) {
	rng := stats.NewRNG(201)
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(4)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		s := 2 + rng.Intn(3)
		h := hash.NewPoly(n, s).DrawN(1, rng.Uint64)[0]
		ground := oracle.NewExhaustive(n, cnf.Eval)
		tester := NewPolyTester(cnf)
		for tt := 0; tt <= n; tt++ {
			want := ground.MaxTrailingZeros(h, tt) == tt
			got := tester.exists(h, tt)
			if got != want {
				t.Fatalf("trial %d (n=%d s=%d t=%d): encoded=%v brute=%v", trial, n, s, tt, got, want)
			}
		}
	}
}

func TestPolyTesterFindMaxRange(t *testing.T) {
	rng := stats.NewRNG(203)
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(4)
		cnf, _ := formula.PlantedKCNF(n, n, 2, rng)
		h := hash.NewPoly(n, 3).DrawN(1, rng.Uint64)[0]
		ground := oracle.NewExhaustive(n, cnf.Eval)
		for maxT := 0; maxT <= n; maxT++ {
			want := ground.MaxTrailingZeros(h, maxT)
			got := NewPolyTester(cnf).MaxTrailingZeros(h, maxT)
			if got != want {
				t.Fatalf("trial %d maxT=%d: FindMaxRange encoded=%d brute=%d", trial, maxT, got, want)
			}
		}
	}
}

func TestPolyTesterUnsat(t *testing.T) {
	cnf := formula.NewCNF(4)
	cnf.AddClause(formula.Clause{formula.Pos(0)})
	cnf.AddClause(formula.Clause{formula.Negl(0)})
	h := hash.NewPoly(4, 2).DrawN(1, stats.NewRNG(1).Uint64)[0]
	tester := NewPolyTester(cnf)
	if r := tester.MaxTrailingZeros(h, 4); r != -1 {
		t.Fatalf("unsat formula: MaxTrailingZeros = %d, want -1", r)
	}
	if tester.Queries() == 0 {
		t.Fatal("queries not metered")
	}
}

func TestPolyTesterRejectsLinearHash(t *testing.T) {
	cnf := formula.NewCNF(4)
	lin := hash.NewToeplitz(4, 4).Draw(stats.NewRNG(1).Uint64)
	defer func() {
		if recover() == nil {
			t.Fatal("linear hash accepted")
		}
	}()
	NewPolyTester(cnf).MaxTrailingZeros(lin, 4)
}

// TestApproxModelCountEstWithSATOracle runs the full Algorithm 7 pipeline
// with the encoded oracle on a CNF formula — the configuration the paper
// describes (Theorem 4) but leaves to an abstract NP oracle.
func TestApproxModelCountEstWithSATOracle(t *testing.T) {
	rng := stats.NewRNG(207)
	cnf, _ := formula.PlantedKCNF(10, 12, 3, rng)
	truth := float64(exact.CountCNF(cnf))
	r := int(math.Ceil(math.Log2(2 * truth)))
	if r > 10 {
		r = 10
	}
	tester := NewPolyTester(cnf)
	opts := counting.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 5, RNG: stats.NewRNG(1)}
	ok := 0
	var queries int64
	const trials = 5
	for s := 0; s < trials; s++ {
		opts.RNG = stats.NewRNG(uint64(300 + s))
		res := counting.ApproxModelCountEst(tester, 10, r, opts)
		if stats.WithinFactor(res.Estimate, truth, 0.8) {
			ok++
		}
		queries += res.OracleQueries
	}
	if ok < trials*3/5 {
		t.Errorf("SAT-oracle Algorithm 7 in-band only %d/%d (truth %g)", ok, trials, truth)
	}
	if queries == 0 {
		t.Error("no SAT queries recorded")
	}
}
