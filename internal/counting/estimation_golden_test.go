package counting

import (
	"fmt"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// goldenEstDigests pins estimateDigest (PerIteration and Estimate bits)
// of Algorithm 7 over the exhaustive tester and goldenEstQueries its
// OracleQueries apart from them; goldenKarpLubyDigests pins the
// Karp–Luby baseline's estimates, which ask no oracle. The values were
// captured before the trial testers always forked, so a change to the
// hash draws, the trial loop or the query meter fails here.
var goldenEstDigests = map[string]string{
	"cnf/n=8":   "23dc7531ffc62d535278dc44f4ae62992ef520a9ad4f2ff07a07aaa78982290e",
	"cnf/n=10":  "715ae944fe39046f829134ec8a40b0d95feb67d6db97c51cfcb4d38b1a121aca",
	"cnf/n=12":  "e01d654cfdd187510b724bf4c933d2cf52150c5631cbd5d0c3270a064d78230a",
	"dnf/n=11":  "29c1d4e253dc44f3c19b65a89e50875c7de03568b8a7245819d0c67e8205dcd0",
	"unsat/n=9": "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
}

var goldenEstQueries = map[string]int64{
	"cnf/n=8":   80,
	"cnf/n=10":  80,
	"cnf/n=12":  80,
	"dnf/n=11":  80,
	"unsat/n=9": 80,
}

var goldenKarpLubyDigests = map[string]string{
	"n=12":               "d29788cf946eb29ff6b3dadcc4786f5ae4a10bf31c0eba718b4e3cffe8842eed",
	"n=60":               "8b00a6ac162176ee0a580c95f60c91a5836c5bf86bd1eb179cedcd7ebb2f3e25",
	"contradictory/n=14": "86dfd623baae4b406f758be7dd480fa74f9eaed8a4f9018a483c0dec1f6bfe2d",
}

// TestEstimationCountGoldenDeterminism checks both pins at
// parallelism 1 and 2. The cases cover CNF and DNF formulas, a range
// parameter clamped to n (dense cnf/n=8) and an unsatisfiable formula,
// whose trials all miss.
func TestEstimationCountGoldenDeterminism(t *testing.T) {
	rng := stats.NewRNG(0xe57)
	cases := map[string]*oracle.Exhaustive{}
	rs := map[string]int{}
	for _, c := range []struct{ n, clauses int }{{8, 4}, {10, 30}, {12, 40}} {
		cnf := formula.RandomKCNF(c.n, c.clauses, 3, rng)
		name := fmt.Sprintf("cnf/n=%d", c.n)
		cases[name] = oracle.NewExhaustive(c.n, cnf.Eval)
		rs[name], _ = RoughCount(oracle.LinearTester{Source: oracle.NewCNFSource(cnf)}, c.n, 5, stats.NewRNG(uint64(0x70+c.n)))
	}
	d := formula.RandomDNF(11, 5, 4, rng)
	cases["dnf/n=11"] = oracle.NewExhaustive(11, d.Eval)
	rs["dnf/n=11"], _ = RoughCount(oracle.LinearTester{Source: oracle.NewDNFSource(d)}, 11, 5, stats.NewRNG(0x7b))
	unsat := formula.NewDNF(9)
	cases["unsat/n=9"] = oracle.NewExhaustive(9, unsat.Eval)
	rs["unsat/n=9"] = 4
	for _, par := range []int{1, 2} {
		for name, tz := range cases {
			o := Options{Thresh: 16, Iterations: 5, RNG: stats.NewRNG(0xe570), Parallelism: par}
			checkGolden(t, fmt.Sprintf("%s par=%d", name, par), ApproxModelCountEst(tz, tz.NVars(), rs[name], o),
				goldenEstDigests[name], goldenEstQueries[name])
		}
	}
}

// TestKarpLubyGoldenDeterminism checks the pinned Karp–Luby digests at
// parallelism 1 and 2, including a DNF wider than float64's exact range
// of term weights and one with a contradictory term.
func TestKarpLubyGoldenDeterminism(t *testing.T) {
	rng := stats.NewRNG(0x4b1)
	cases := map[string]*formula.DNF{
		"n=12": formula.RandomDNF(12, 6, 4, rng),
		"n=60": formula.RandomDNF(60, 4, 10, rng),
	}
	contra := formula.RandomDNF(14, 3, 5, rng)
	contra.AddTerm(formula.Term{formula.Pos(0), formula.Negl(0)})
	cases["contradictory/n=14"] = contra
	for _, par := range []int{1, 2} {
		for name, d := range cases {
			o := Options{Iterations: 5, RNG: stats.NewRNG(0x4b10), Parallelism: par}
			checkGolden(t, fmt.Sprintf("%s par=%d", name, par), KarpLuby(d, o), goldenKarpLubyDigests[name], 0)
		}
	}
}
