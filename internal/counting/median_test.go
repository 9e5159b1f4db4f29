package counting

import (
	"math"
	"slices"
	"testing"

	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// medianIterations are the trial counts the median-step properties run
// at: one trial, and an odd and an even count on both sides of two.
var medianIterations = []int{1, 2, 5, 6}

// checkMedianStep checks the median step of one count: PerIteration
// holds one estimate per trial and Estimate is their stats.Median, bit
// for bit, so no accuracy statistic can see a trial dropped, added or
// counted twice. At the larger counts the trials must not all agree, or
// the check could not see one dropped.
func checkMedianStep(t *testing.T, name string, iters int, per []float64, est float64) {
	t.Helper()
	if len(per) != iters {
		t.Fatalf("%s iterations=%d: %d per-iteration estimates", name, iters, len(per))
	}
	if want := stats.Median(per); math.Float64bits(est) != math.Float64bits(want) {
		t.Fatalf("%s iterations=%d: estimate %v, median of the trials %v", name, iters, est, want)
	}
	if iters >= 5 && len(slices.Compact(slices.Sorted(slices.Values(per)))) < 2 {
		t.Fatalf("%s iterations=%d: every trial estimated %v", name, iters, per[0])
	}
}

// Every counter reports the median of all of its trials, at odd and even
// trial counts. ApproxMC runs on a formula whose level-0 pool is
// complete (Thresh < |Sol| < 2·Thresh, so trials answer from the pool and
// differ) and on one past the pool, where trials search the oracle.
func TestCountersReportMedianOfEveryTrial(t *testing.T) {
	const thresh = 16
	lit := func(v int, neg bool) formula.Lit { return formula.Lit{Var: v, Neg: neg} }
	small := formula.NewDNF(10)
	small.AddTerm(formula.Term{lit(0, false), lit(1, false), lit(2, false), lit(3, false), lit(4, false), lit(5, false)})
	small.AddTerm(formula.Term{lit(0, true), lit(1, false), lit(2, false), lit(6, false), lit(7, false), lit(8, false), lit(9, false)})
	big := formula.RandomDNF(12, 6, 4, stats.NewRNG(0x3ed1))
	if m := exact.CountDNF(small); m <= thresh || m >= 2*thresh {
		t.Fatalf("complete-pool formula has %d models, want in (%d, %d)", m, thresh, 2*thresh)
	}
	models := exact.CountDNF(big)
	if models < 2*thresh {
		t.Fatalf("past-pool formula has %d models, want at least %d", models, 2*thresh)
	}
	r := min(big.N, int(math.Ceil(math.Log2(2*float64(models))))) // 2F0 ≤ 2^r ≤ 50F0
	counters := []struct {
		name  string
		count func(Options) Result
	}{
		{"ApproxMC/complete-pool", func(o Options) Result { return ApproxMC(oracle.NewDNFSource(small), o) }},
		{"ApproxMC/past-pool", func(o Options) Result { return ApproxMC(oracle.NewDNFSource(big), o) }},
		{"ApproxModelCountMinDNF", func(o Options) Result { return ApproxModelCountMinDNF(big, o) }},
		{"ApproxModelCountMinOracle", func(o Options) Result { return ApproxModelCountMinOracle(oracle.NewDNFSource(big), o) }},
		{"ApproxModelCountEst", func(o Options) Result {
			return ApproxModelCountEst(oracle.NewExhaustive(big.N, big.Eval), big.N, r, o)
		}},
		{"KarpLuby", func(o Options) Result { return KarpLuby(big, o) }},
	}
	for _, c := range counters {
		for _, iters := range medianIterations {
			res := c.count(Options{Thresh: thresh, Iterations: iters, RNG: stats.NewRNG(0x3ed2), Parallelism: 2})
			if res.Iterations != iters {
				t.Fatalf("%s iterations=%d: result reports %d iterations", c.name, iters, res.Iterations)
			}
			checkMedianStep(t, c.name, iters, res.PerIteration, res.Estimate)
		}
	}
}
