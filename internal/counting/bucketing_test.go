package counting

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// TestBoundedSATCarryForward seeds BoundedSAT at prefix m with the
// solutions it returned for a coarser prefix m' ≤ m of the same hash and
// checks the result against brute force: the count is min(thresh,
// |cell_m|), the solutions are distinct members of cell_m, and when the
// coarser solutions already fill thresh no oracle call is made.
func TestBoundedSATCarryForward(t *testing.T) {
	rng := stats.NewRNG(0xca77)
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(6)
		cnf, _ := formula.PlantedKCNF(n, rng.Intn(2*n), 2+rng.Intn(2), rng)
		h := hash.NewToeplitz(n, n).Draw(rng.Uint64)
		m := rng.Intn(n + 1)
		coarse := rng.Intn(m + 1)
		thresh := 1 + rng.Intn(16)
		cell := 0
		for v := uint64(0); v < 1<<uint(n); v++ {
			if x := bitvec.FromUint64(v, n); cnf.Eval(x) && h.PrefixIsZero(x, m) {
				cell++
			}
		}
		want := min(cell, thresh)
		for _, src := range []oracle.Source{oracle.NewCNFSource(cnf), oracle.NewDNFSource(cnfAsDNF(cnf)), oracle.NewExhaustive(n, cnf.Eval)} {
			_, coarser := BoundedSAT(src, h, coarse, thresh)
			kept := 0
			for _, x := range coarser {
				if h.PrefixIsZero(x, m) {
					kept++
				}
			}
			before := src.Queries()
			got, sols := BoundedSAT(src, h, m, thresh, coarser...)
			if got != want || len(sols) != want {
				t.Fatalf("trial %d %T: m'=%d → m=%d thresh %d: count %d (%d solutions), want %d",
					trial, src, coarse, m, thresh, got, len(sols), want)
			}
			seen := map[bitvec.Fingerprint]bool{}
			for _, x := range sols {
				if seen[x.Fingerprint()] || !cnf.Eval(x) || !h.PrefixIsZero(x, m) {
					t.Fatalf("trial %d %T: solution %v repeated or outside the cell", trial, src, x)
				}
				seen[x.Fingerprint()] = true
			}
			if kept >= thresh && src.Queries() != before {
				t.Fatalf("trial %d %T: %d kept solutions fill thresh %d, yet %d oracle calls",
					trial, src, kept, thresh, src.Queries()-before)
			}
		}
	}
}

// cnfAsDNF expands a CNF over n ≤ 10 variables into the DNF of its
// models, one full-width term per model, so the DNF backend answers the
// same cells.
func cnfAsDNF(c *formula.CNF) *formula.DNF {
	d := formula.NewDNF(c.N)
	for v := uint64(0); v < 1<<uint(c.N); v++ {
		x := bitvec.FromUint64(v, c.N)
		if !c.Eval(x) {
			continue
		}
		t := make(formula.Term, c.N)
		for i := range t {
			t[i] = formula.Lit{Var: i, Neg: !x.Get(i)}
		}
		d.AddTerm(t)
	}
	return d
}
