package exact

import (
	"math"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

func TestCountCNFAgainstExhaustive(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		m := rng.Intn(4 * n)
		cnf := formula.RandomKCNF(n, m, min(2+rng.Intn(2), n), rng)
		want := Exhaustive(n, cnf.Eval)
		if got := CountCNF(cnf); got != want {
			t.Fatalf("trial %d (n=%d m=%d): dpll=%d brute=%d", trial, n, m, got, want)
		}
	}
}

func TestCountCNFEdgeCases(t *testing.T) {
	empty := formula.NewCNF(5)
	if got := CountCNF(empty); got != 32 {
		t.Errorf("empty CNF count = %d, want 32", got)
	}
	contra := formula.NewCNF(3)
	contra.AddClause(formula.Clause{formula.Pos(0)})
	contra.AddClause(formula.Clause{formula.Negl(0)})
	if got := CountCNF(contra); got != 0 {
		t.Errorf("contradiction count = %d, want 0", got)
	}
	withEmpty := formula.NewCNF(3)
	withEmpty.AddClause(formula.Clause{})
	if got := CountCNF(withEmpty); got != 0 {
		t.Errorf("empty-clause CNF count = %d, want 0", got)
	}
}

func TestCountDNFAgainstExhaustive(t *testing.T) {
	rng := stats.NewRNG(37)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		k := 1 + rng.Intn(8)
		w := min(1+rng.Intn(4), n)
		dnf := formula.RandomDNF(n, k, w, rng)
		want := Exhaustive(n, dnf.Eval)
		if got := CountDNF(dnf); got != want {
			t.Fatalf("trial %d (n=%d k=%d): IE=%d brute=%d", trial, n, k, got, want)
		}
	}
}

func TestCountDNFEmpty(t *testing.T) {
	if got := CountDNF(formula.NewDNF(4)); got != 0 {
		t.Errorf("empty DNF count = %d", got)
	}
	full := formula.NewDNF(4)
	full.AddTerm(formula.Term{})
	if got := CountDNF(full); got != 16 {
		t.Errorf("tautology DNF count = %d, want 16", got)
	}
}

func TestCountDNFRangeFormulas(t *testing.T) {
	// The Lemma 4 DNF for [lo, hi] must count exactly hi−lo+1.
	for _, tc := range []struct{ lo, hi uint64 }{{0, 0}, {3, 11}, {0, 255}, {17, 200}} {
		d, err := formula.RangeDNF(formula.Range{Lo: tc.lo, Hi: tc.hi, Bits: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := CountDNF(d), tc.hi-tc.lo+1; got != want {
			t.Errorf("range [%d,%d]: count %d, want %d", tc.lo, tc.hi, got, want)
		}
	}
}

func TestWeightedCountDNF(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(7)
		k := 1 + rng.Intn(6)
		dnf := formula.RandomDNF(n, k, min(1+rng.Intn(3), n), rng)
		w := WeightFunc{Num: make([]uint64, n), Bits: make([]int, n)}
		for i := 0; i < n; i++ {
			w.Bits[i] = 1 + rng.Intn(6)
			w.Num[i] = 1 + rng.Uint64n(uint64(1)<<uint(w.Bits[i])-1)
		}
		want := WeightedExhaustive(n, dnf.Eval, w)
		got := WeightedCountDNF(dnf, w)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: weighted IE=%g brute=%g", trial, got, want)
		}
	}
}

func TestWeightFuncValidate(t *testing.T) {
	good := WeightFunc{Num: []uint64{1, 3}, Bits: []int{1, 2}}
	if !good.Validate(2) {
		t.Error("valid weight rejected")
	}
	for _, bad := range []WeightFunc{
		{Num: []uint64{0, 1}, Bits: []int{2, 2}},  // zero weight
		{Num: []uint64{4, 1}, Bits: []int{2, 2}},  // weight = 1
		{Num: []uint64{1}, Bits: []int{2}},        // wrong arity
		{Num: []uint64{1, 1}, Bits: []int{0, 2}},  // zero bits
		{Num: []uint64{1, 1}, Bits: []int{63, 2}}, // too many bits
	} {
		if bad.Validate(2) {
			t.Errorf("invalid weight accepted: %+v", bad)
		}
	}
}

func TestCountCNFModeratelyLarge(t *testing.T) {
	// Beyond exhaustive range: n=34 free variables with a few clauses;
	// verify against a hand-computable structure: x0 ∧ (x1 ∨ x2) leaves
	// 2^31 · 3/4 · ... — use independent clause blocks for an exact value.
	c := formula.NewCNF(34)
	c.AddClause(formula.Clause{formula.Pos(0)})
	c.AddClause(formula.Clause{formula.Pos(1), formula.Pos(2)})
	// count = 1 · 3 · 2^31
	if got, want := CountCNF(c), uint64(3)<<31; got != want {
		t.Fatalf("structured CNF count = %d, want %d", got, want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WeightedExhaustive computes W(φ) by full enumeration; ground truth for
// WeightedCountDNF at small n.
func WeightedExhaustive(n int, eval func(bitvec.BitVec) bool, w WeightFunc) float64 {
	if n > 24 {
		panic("exact: exhaustive enumeration beyond 2^24")
	}
	total := 0.0
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		if !eval(x) {
			continue
		}
		weight := 1.0
		for i := 0; i < n; i++ {
			if x.Get(i) {
				weight *= w.Rho(i)
			} else {
				weight *= 1 - w.Rho(i)
			}
		}
		total += weight
	}
	return total
}
