package counting

import (
	"fmt"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// goldenEstDigests pins resultDigest (PerIteration, Estimate and
// OracleQueries) of Algorithm 7 over the exhaustive tester, and
// goldenKarpLubyDigests the same for the Karp–Luby baseline. The values
// were captured before the trial testers always forked, so a change to
// the hash draws, the trial loop or the query meter fails here.
var goldenEstDigests = map[string]string{
	"cnf/n=8":   "a5b054d7c1ff2cdd359e07efb9d86afad186dfae6cc3286fb1e64bae40da176a",
	"cnf/n=10":  "3796a1267259a13bb789ae43ef0a5882681d991e16827800548e95f1bcf55e63",
	"cnf/n=12":  "88e3a32b6eaba5cfa596641633c496cfa3ec363a27a3970edbaa9a73b7930a76",
	"dnf/n=11":  "029c63016a74235a0512c6911dccb23f0456cb0a8e67afbb3cf2e290a1549697",
	"unsat/n=9": "fd4c3691c27d4c05f370ab01ea39e9d945793403f064c2dcbda64ccb896cadb3",
}

var goldenKarpLubyDigests = map[string]string{
	"n=12":               "2ea071b880aba9209f9298953a6fb1855528547481753ebf1ff3b77b520c956c",
	"n=60":               "fa1f4085c0524ffa03cc6bfa04cd24f63693fafc7eea458e46e185c50eb085e4",
	"contradictory/n=14": "2aeacf2932bce0695535657bfd11fe4bc15a9f7e61686e4c27580fdacbe6bf96",
}

// TestEstimationCountGoldenDeterminism checks the pinned digests at
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
			got := resultDigest(ApproxModelCountEst(tz, tz.NVars(), rs[name], o))
			if want := goldenEstDigests[name]; got != want {
				t.Errorf("%s par=%d: digest %s, want %s", name, par, got, want)
			}
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
			got := resultDigest(KarpLuby(d, o))
			if want := goldenKarpLubyDigests[name]; got != want {
				t.Errorf("%s par=%d: digest %s, want %s", name, par, got, want)
			}
		}
	}
}
