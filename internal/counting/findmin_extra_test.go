package counting

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// findMinDNFValues runs FindMinDNF into a fresh set of p rows and returns
// its values in ascending order.
func findMinDNFValues(d *formula.DNF, h *hash.Linear, p int) []bitvec.BitVec {
	set := kmv.New(h.OutBits(), p)
	FindMinDNF(d, h, set)
	return set.Values()
}

// findMinOracleValues is findMinDNFValues for FindMinOracle.
func findMinOracleValues(src oracle.Source, h *hash.Linear, p int) []bitvec.BitVec {
	set := kmv.New(h.OutBits(), p)
	FindMinOracle(src, h, set)
	return set.Values()
}

// TestFindMinDNFManyOverlappingTerms stresses the cross-term pruning with
// heavily overlapping terms.
func TestFindMinDNFManyOverlappingTerms(t *testing.T) {
	rng := stats.NewRNG(211)
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(3)
		d := formula.RandomDNF(n, 10, 1+rng.Intn(2), rng) // wide terms, big overlap
		h := hash.NewToeplitz(n, 2*n).Draw(rng.Uint64)
		for _, p := range []int{1, 3, 17} {
			want := bruteHashMins(n, d.Eval, h, p)
			got := findMinDNFValues(d, h, p)
			if len(got) != len(want) {
				t.Fatalf("trial %d p=%d: got %d mins, want %d", trial, p, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d p=%d: min[%d] mismatch", trial, p, i)
				}
			}
		}
	}
}

// TestFindMinDNFDegenerate covers contradictory and full terms.
func TestFindMinDNFDegenerate(t *testing.T) {
	n := 6
	h := hash.NewToeplitz(n, 2*n).Draw(stats.NewRNG(3).Uint64)
	empty := formula.NewDNF(n)
	if got := findMinDNFValues(empty, h, 5); len(got) != 0 {
		t.Fatalf("empty DNF produced %d mins", len(got))
	}
	contra := formula.NewDNF(n)
	contra.AddTerm(formula.Term{formula.Pos(0), formula.Negl(0)})
	if got := findMinDNFValues(contra, h, 5); len(got) != 0 {
		t.Fatalf("contradictory DNF produced %d mins", len(got))
	}
	taut := formula.NewDNF(n)
	taut.AddTerm(formula.Term{})
	got := findMinDNFValues(taut, h, 5)
	want := bruteHashMins(n, func(bitvec.BitVec) bool { return true }, h, 5)
	if len(got) != len(want) {
		t.Fatalf("tautology: got %d mins, want %d", len(got), len(want))
	}
	// Fully-fixed term (no free variables): image is a single point.
	point := formula.NewDNF(n)
	var tm formula.Term
	for v := 0; v < n; v++ {
		tm = append(tm, formula.Pos(v))
	}
	point.AddTerm(tm)
	got = findMinDNFValues(point, h, 5)
	if len(got) != 1 {
		t.Fatalf("single-point DNF produced %d mins", len(got))
	}
	all1 := bitvec.New(n)
	for i := 0; i < n; i++ {
		all1.Set(i, true)
	}
	if !got[0].Equal(hashOf(h, all1)) {
		t.Fatal("single-point image wrong")
	}
}
