package oracle

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/stats"
)

// randomSystem builds a random linear constraint system over n variables.
func randomSystem(n, rows int, rng *stats.RNG) *gf2.System {
	sys := gf2.NewSystem(n)
	for i := 0; i < rows; i++ {
		sys.Add(bitvec.Random(n, rng.Uint64), rng.Bool())
	}
	return sys
}

func collect(s Source, cons *gf2.System, limit int) map[bitvec.Fingerprint]bool {
	out := map[bitvec.Fingerprint]bool{}
	s.Enumerate(cons, nil, limit, func(x bitvec.BitVec) bool {
		out[x.Fingerprint()] = true
		return true
	})
	return out
}

func TestSourcesAgreeCNF(t *testing.T) {
	rng := stats.NewRNG(43)
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(7)
		cnf := formula.RandomKCNF(n, rng.Intn(3*n), 2+rng.Intn(2), rng)
		cons := randomSystem(n, rng.Intn(4), rng)
		ground := NewExhaustive(n, cnf.Eval)
		cnfSrc := NewCNFSource(cnf)
		want := collect(ground, cons, -1)
		got := collect(cnfSrc, cons, -1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: CNF source found %d, ground %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: solution sets differ", trial)
			}
		}
	}
}

func TestSourcesAgreeDNF(t *testing.T) {
	rng := stats.NewRNG(47)
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(7)
		k := 1 + rng.Intn(6)
		dnf := formula.RandomDNF(n, k, 1+rng.Intn(min(3, n)), rng)
		cons := randomSystem(n, rng.Intn(4), rng)
		ground := NewExhaustive(n, dnf.Eval)
		dnfSrc := NewDNFSource(dnf)
		want := collect(ground, cons, -1)
		got := collect(dnfSrc, cons, -1)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): DNF source found %d, ground %d", trial, n, k, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: solution sets differ", trial)
			}
		}
	}
}

func TestEnumerateRespectsLimit(t *testing.T) {
	rng := stats.NewRNG(53)
	n := 8
	dnf := formula.RandomDNF(n, 4, 2, rng)
	cnf := formula.RandomKCNF(n, 4, 3, rng)
	for _, src := range []Source{
		NewDNFSource(dnf),
		NewCNFSource(cnf),
		NewExhaustive(n, func(bitvec.BitVec) bool { return true }),
	} {
		total := src.Enumerate(nil, nil, -1, func(bitvec.BitVec) bool { return true })
		if total == 0 {
			continue
		}
		lim := total / 2
		if lim == 0 {
			lim = 1
		}
		got := src.Enumerate(nil, nil, lim, func(bitvec.BitVec) bool { return true })
		if got != lim {
			t.Errorf("%T: limit %d returned %d", src, lim, got)
		}
	}
}

func TestEnumerateDistinct(t *testing.T) {
	// Overlapping terms must not produce duplicate solutions.
	d := formula.NewDNF(4)
	d.AddTerm(formula.Term{formula.Pos(0)})                 // 8 solutions
	d.AddTerm(formula.Term{formula.Pos(0), formula.Pos(1)}) // subset of the first
	src := NewDNFSource(d)
	seen := map[bitvec.Fingerprint]int{}
	src.Enumerate(nil, nil, -1, func(x bitvec.BitVec) bool {
		seen[x.Fingerprint()]++
		return true
	})
	if len(seen) != 8 {
		t.Fatalf("distinct solutions = %d, want 8", len(seen))
	}
	for _, c := range seen {
		if c != 1 {
			t.Fatal("duplicate solution visited")
		}
	}
}

func TestInconsistentConstraints(t *testing.T) {
	n := 4
	cons := gf2.NewSystem(n)
	v := bitvec.FromString("1000")
	cons.Add(v, true)
	cons.Add(v, false)
	d := formula.NewDNF(n)
	d.AddTerm(formula.Term{})
	for _, src := range []Source{
		NewDNFSource(d),
		NewCNFSource(formula.NewCNF(n)),
		NewExhaustive(n, func(bitvec.BitVec) bool { return true }),
	} {
		if got := src.Enumerate(cons, nil, -1, func(bitvec.BitVec) bool { return true }); got != 0 {
			t.Errorf("%T: inconsistent constraints yielded %d solutions", src, got)
		}
	}
}

// TestExistsTrailingZeros checks every tester's FindMaxRange against brute
// force at every maxT ∈ [0, n], which covers Exhaustive's clamp:
// Exhaustive under a polynomial, an H_xor and a Toeplitz draw, and
// LinearTester over CNFSource, DNFSource and Exhaustive under the two
// linear draws, on satisfiable and unsatisfiable formulas.
func TestExistsTrailingZeros(t *testing.T) {
	rng := stats.NewRNG(59)
	n := 6
	d := formula.RandomDNF(n, 3, 2, rng)
	cnf := formula.RandomKCNF(n, 6, 2, rng)
	unsatCNF := formula.NewCNF(n)
	unsatCNF.AddClause(formula.Clause{formula.Pos(0)})
	unsatCNF.AddClause(formula.Clause{formula.Negl(0)})
	unsatDNF := formula.NewDNF(n)
	cases := []struct {
		name string
		eval func(bitvec.BitVec) bool
		src  Source
	}{
		{"dnf", d.Eval, NewDNFSource(d)},
		{"cnf", cnf.Eval, NewCNFSource(cnf)},
		{"unsat-dnf", unsatDNF.Eval, NewDNFSource(unsatDNF)},
		{"unsat-cnf", unsatCNF.Eval, NewCNFSource(unsatCNF)},
	}
	hs := []struct {
		name string
		h    hash.Func
	}{
		{"poly", hash.NewPoly(n, 3).DrawN(1, rng.Uint64)[0]},
		{"xor", hash.NewXor(n, n).Draw(rng.Uint64)},
		{"toeplitz", hash.NewToeplitz(n, n).Draw(rng.Uint64)},
	}
	clamped := 0
	for _, c := range cases {
		for _, hc := range hs {
			maxTZ := -1
			for v := uint64(0); v < 1<<uint(n); v++ {
				if x := bitvec.FromUint64(v, n); c.eval(x) {
					y := bitvec.FromUint64(hc.h.EvalUint64(v), hc.h.OutBits())
					maxTZ = max(maxTZ, y.TrailingZeros())
				}
			}
			testers := []TrailingZeroTester{NewExhaustive(n, c.eval)}
			if hc.name == "xor" || hc.name == "toeplitz" {
				testers = append(testers, LinearTester{c.src}, LinearTester{NewExhaustive(n, c.eval)})
			}
			for maxT := 0; maxT <= n; maxT++ {
				want := min(maxTZ, maxT)
				if want < maxTZ {
					clamped++
				}
				for i, tz := range testers {
					if got := tz.MaxTrailingZeros(hc.h, maxT); got != want {
						t.Fatalf("%s/%s tester %d (%T): MaxTrailingZeros(maxT=%d) = %d, want %d", c.name, hc.name, i, tz, maxT, got, want)
					}
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no case exercised the maxT clamp")
	}
}

func TestQueriesMetered(t *testing.T) {
	rng := stats.NewRNG(61)
	cnf := formula.RandomKCNF(6, 6, 2, rng)
	src := NewCNFSource(cnf)
	if src.Queries() != 0 {
		t.Fatal("fresh source has queries")
	}
	src.Enumerate(nil, nil, 3, func(bitvec.BitVec) bool { return true })
	if src.Queries() == 0 {
		t.Fatal("queries not metered")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
