package counting

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// testOpts keeps trials fast while retaining statistical meaning.
func testOpts(seed uint64) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, RNG: stats.NewRNG(seed)}
}

func TestBoundedSATMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(5)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		h := hash.NewToeplitz(n, n).Draw(rng.Uint64).(*hash.Linear)
		m := rng.Intn(n + 1)
		thresh := 1 + rng.Intn(20)
		want := 0
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if cnf.Eval(x) && h.PrefixIsZero(x, m) {
				want++
			}
		}
		if want > thresh {
			want = thresh
		}
		for _, src := range []oracle.Source{
			oracle.NewCNFSource(cnf),
			oracle.NewExhaustive(n, cnf.Eval),
		} {
			got, sols := BoundedSAT(src, h, m, thresh)
			if got != want {
				t.Fatalf("trial %d: BoundedSAT=%d want=%d (%T)", trial, got, want, src)
			}
			for _, x := range sols {
				if !cnf.Eval(x) || !h.PrefixIsZero(x, m) {
					t.Fatal("BoundedSAT returned non-solution")
				}
			}
		}
	}
}

// accuracyTrials runs an estimator repeatedly over random seeds and checks
// the success rate of landing inside the (1+ε) band.
func accuracyTrials(t *testing.T, name string, truth float64, eps float64, trials int, run func(seed uint64) float64) {
	t.Helper()
	ok := 0
	for s := 0; s < trials; s++ {
		est := run(uint64(1000 + s))
		if stats.WithinFactor(est, truth, eps) {
			ok++
		}
	}
	rate := float64(ok) / float64(trials)
	// δ = 0.2 in testOpts; demand an empirical rate comfortably above 1−δ
	// minus sampling noise.
	if rate < 0.7 {
		t.Errorf("%s: success rate %.2f (truth %g)", name, rate, truth)
	}
}

func TestApproxMCAccuracyDNF(t *testing.T) {
	rng := stats.NewRNG(73)
	d := formula.RandomDNF(14, 6, 4, rng)
	truth := float64(exact.CountDNF(d))
	src := oracle.NewDNFSource(d)
	accuracyTrials(t, "ApproxMC/DNF", truth, 0.8, 20, func(seed uint64) float64 {
		return ApproxMC(src, testOpts(seed)).Estimate
	})
}

func TestApproxMCAccuracyCNF(t *testing.T) {
	rng := stats.NewRNG(79)
	cnf, _ := formula.PlantedKCNF(12, 18, 3, rng)
	truth := float64(exact.CountCNF(cnf))
	src := oracle.NewCNFSource(cnf)
	accuracyTrials(t, "ApproxMC/CNF", truth, 0.8, 15, func(seed uint64) float64 {
		return ApproxMC(src, testOpts(seed)).Estimate
	})
}

func TestApproxMCBinarySearchAgreesWithLinear(t *testing.T) {
	// Same hash draws (same seed) must give identical estimates: binary
	// search changes only the number of queries, not the located prefix.
	rng := stats.NewRNG(83)
	d := formula.RandomDNF(12, 5, 3, rng)
	src := oracle.NewDNFSource(d)
	for seed := uint64(0); seed < 10; seed++ {
		lin := ApproxMC(src, testOpts(seed))
		bin := ApproxMC(src, testOpts(seed), Variant{BinarySearch: true})
		if lin.Estimate != bin.Estimate {
			t.Fatalf("seed %d: linear=%g binary=%g", seed, lin.Estimate, bin.Estimate)
		}
	}
}

func TestApproxMCBinarySearchFewerQueries(t *testing.T) {
	// On a CNF with a large solution count the linear scan walks m up one
	// step at a time; binary search must use fewer oracle calls.
	rng := stats.NewRNG(89)
	cnf := formula.RandomKCNF(16, 8, 3, rng) // loose formula, many solutions
	linSrc := oracle.NewCNFSource(cnf)
	binSrc := oracle.NewCNFSource(cnf)
	lin := ApproxMC(linSrc, testOpts(1))
	bin := ApproxMC(binSrc, testOpts(1), Variant{BinarySearch: true})
	if bin.OracleQueries >= lin.OracleQueries {
		t.Errorf("binary search used %d queries, linear %d", bin.OracleQueries, lin.OracleQueries)
	}
}

func TestFindMinDNFMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(97)
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(4)
		d := formula.RandomDNF(n, 1+rng.Intn(4), 1+rng.Intn(3), rng)
		h := hash.NewToeplitz(n, 2*n).Draw(rng.Uint64).(*hash.Linear)
		p := 1 + rng.Intn(12)
		want := bruteHashMins(n, d.Eval, h, p)
		got := findMinDNFValues(d, h, p)
		compareMins(t, trial, got, want)
	}
}

func TestFindMinOracleMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(101)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(4)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		h := hash.NewToeplitz(n, 2*n).Draw(rng.Uint64).(*hash.Linear)
		p := 1 + rng.Intn(8)
		want := bruteHashMins(n, cnf.Eval, h, p)
		got := findMinOracleValues(oracle.NewCNFSource(cnf), h, p)
		compareMins(t, trial, got, want)
	}
}

// hashOf returns h(x) in a fresh vector.
func hashOf(h hash.Func, x bitvec.BitVec) bitvec.BitVec {
	y := bitvec.New(h.OutBits())
	h.EvalInto(x, y)
	return y
}

func bruteHashMins(n int, eval func(bitvec.BitVec) bool, h *hash.Linear, p int) []bitvec.BitVec {
	seen := map[string]bitvec.BitVec{}
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		if eval(x) {
			y := hashOf(h, x)
			seen[y.Key()] = y
		}
	}
	var ys []bitvec.BitVec
	for _, y := range seen {
		ys = append(ys, y)
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i].Less(ys[j]) })
	if len(ys) > p {
		ys = ys[:p]
	}
	return ys
}

func compareMins(t *testing.T, trial int, got, want []bitvec.BitVec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: got %d mins, want %d", trial, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("trial %d: min[%d] = %v, want %v", trial, i, got[i], want[i])
		}
	}
}

func TestApproxModelCountMinAccuracyDNF(t *testing.T) {
	rng := stats.NewRNG(103)
	d := formula.RandomDNF(16, 8, 5, rng)
	truth := float64(exact.CountDNF(d))
	accuracyTrials(t, "Min/DNF", truth, 0.8, 20, func(seed uint64) float64 {
		return ApproxModelCountMinDNF(d, testOpts(seed)).Estimate
	})
}

func TestApproxModelCountMinAccuracyCNF(t *testing.T) {
	rng := stats.NewRNG(107)
	cnf, _ := formula.PlantedKCNF(10, 14, 3, rng)
	truth := float64(exact.CountCNF(cnf))
	src := oracle.NewCNFSource(cnf)
	accuracyTrials(t, "Min/CNF", truth, 0.8, 10, func(seed uint64) float64 {
		return ApproxModelCountMinOracle(src, testOpts(seed)).Estimate
	})
}

func TestApproxModelCountMinSmallExact(t *testing.T) {
	// When |Sol| < Thresh the image is exhausted and the count is exact.
	d := formula.NewDNF(12)
	d.AddTerm(formula.Term{formula.Pos(0), formula.Pos(1), formula.Pos(2),
		formula.Pos(3), formula.Pos(4), formula.Pos(5), formula.Pos(6),
		formula.Pos(7), formula.Pos(8)}) // 2^3 = 8 solutions < Thresh 24
	res := ApproxModelCountMinDNF(d, testOpts(5))
	if res.Estimate != 8 {
		t.Errorf("small-count estimate %g, want exactly 8", res.Estimate)
	}
}

// TestFindMaxRangeBinarySearch drives Proposition 3's search,
// oracle.SearchTrailingZeros, with a brute-force exists over random DNFs
// (some unsatisfiable) at every maxT ∈ [0, n]: the answer is the clamped
// maximum and the search makes at most ⌈log₂(maxT+1)⌉ + 1 probes.
func TestFindMaxRangeBinarySearch(t *testing.T) {
	rng := stats.NewRNG(109)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		d := formula.RandomDNF(n, rng.Intn(3), 2, rng)
		h := hash.NewPoly(n, 3).Draw(rng.Uint64)
		var tzs []int
		maxTZ := -1
		for v := uint64(0); v < 1<<uint(n); v++ {
			if x := bitvec.FromUint64(v, n); d.Eval(x) {
				tz := hashOf(h, x).TrailingZeros()
				tzs = append(tzs, tz)
				maxTZ = max(maxTZ, tz)
			}
		}
		for maxT := 0; maxT <= n; maxT++ {
			probes := 0
			got := oracle.SearchTrailingZeros(maxT, func(t int) bool {
				probes++
				return slices.ContainsFunc(tzs, func(tz int) bool { return tz >= t })
			})
			if want := min(maxTZ, maxT); got != want {
				t.Fatalf("trial %d maxT=%d: SearchTrailingZeros=%d want=%d", trial, maxT, got, want)
			}
			// bits.Len(maxT) = ⌈log₂(maxT+1)⌉.
			if bound := bits.Len(uint(maxT)) + 1; probes > bound {
				t.Fatalf("trial %d maxT=%d: %d probes, bound %d", trial, maxT, probes, bound)
			}
		}
	}
}

func TestFindMaxRangeLinearMatchesExhaustive(t *testing.T) {
	rng := stats.NewRNG(113)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(4)
		cnf := formula.RandomKCNF(n, rng.Intn(2*n), 2, rng)
		h := hash.NewXor(n, n).Draw(rng.Uint64).(*hash.Linear)
		want := -1
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if cnf.Eval(x) {
				if tz := hashOf(h, x).TrailingZeros(); tz > want {
					want = tz
				}
			}
		}
		got := oracle.LinearTester{Source: oracle.NewCNFSource(cnf)}.MaxTrailingZeros(h, n)
		if got != want {
			t.Fatalf("trial %d: LinearTester=%d want=%d", trial, got, want)
		}
	}
}

func TestApproxModelCountEstAccuracy(t *testing.T) {
	rng := stats.NewRNG(127)
	d := formula.RandomDNF(12, 5, 3, rng)
	truth := float64(exact.CountDNF(d))
	ex := oracle.NewExhaustive(12, d.Eval)
	// Pick r from ground truth inside the Lemma 3 window [2F0, 50F0].
	r := int(math.Ceil(math.Log2(2 * truth)))
	opts := testOpts(1)
	opts.Thresh = 48 // estimator benefits from more per-trial hashes
	accuracyTrials(t, "Est", truth, 0.8, 10, func(seed uint64) float64 {
		o := opts
		o.RNG = stats.NewRNG(seed)
		return ApproxModelCountEst(ex, 12, r, o).Estimate
	})
}

func TestRoughCountWithinFactorFive(t *testing.T) {
	rng := stats.NewRNG(131)
	d := formula.RandomDNF(14, 6, 4, rng)
	truth := float64(exact.CountDNF(d))
	src := oracle.NewDNFSource(d)
	okCount := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		_, est := RoughCount(oracle.LinearTester{Source: src}, 14, 9, stats.NewRNG(uint64(s)))
		if est >= truth/8 && est <= 8*truth {
			okCount++
		}
	}
	if okCount < trials*6/10 {
		t.Errorf("RoughCount within factor 8 only %d/%d times (truth %g)", okCount, trials, truth)
	}
}

func TestRoughCountUnsat(t *testing.T) {
	cnf := formula.NewCNF(4)
	cnf.AddClause(formula.Clause{formula.Pos(0)})
	cnf.AddClause(formula.Clause{formula.Negl(0)})
	r, est := RoughCount(oracle.LinearTester{Source: oracle.NewCNFSource(cnf)}, 4, 3, stats.NewRNG(1))
	if r != -1 || est != 0 {
		t.Errorf("unsat RoughCount = (%d, %g)", r, est)
	}
}

func TestKarpLubyAccuracy(t *testing.T) {
	rng := stats.NewRNG(137)
	d := formula.RandomDNF(16, 8, 5, rng)
	truth := float64(exact.CountDNF(d))
	accuracyTrials(t, "KarpLuby", truth, 0.8, 15, func(seed uint64) float64 {
		o := testOpts(seed)
		o.Epsilon = 0.3 // tighter sampling, still fast
		return KarpLuby(d, o).Estimate
	})
}

func TestKarpLubyDegenerate(t *testing.T) {
	if got := KarpLuby(formula.NewDNF(4), testOpts(1)).Estimate; got != 0 {
		t.Errorf("empty DNF estimate %g", got)
	}
	contra := formula.NewDNF(4)
	contra.AddTerm(formula.Term{formula.Pos(0), formula.Negl(0)})
	if got := KarpLuby(contra, testOpts(1)).Estimate; got != 0 {
		t.Errorf("contradictory DNF estimate %g", got)
	}
	taut := formula.NewDNF(4)
	taut.AddTerm(formula.Term{})
	if got := KarpLuby(taut, testOpts(1)).Estimate; got != 16 {
		t.Errorf("tautology estimate %g, want 16", got)
	}
}

// thresh is the Thresh a run with o uses.
func thresh(o Options) int { return o.Resolve(defaultSeed).Thresh }

func TestPaperConstants(t *testing.T) {
	var o Options
	if got := thresh(o); got != 150 { // 96/0.64 = 150
		t.Errorf("default thresh = %d, want 150", got)
	}
	o2 := Options{Epsilon: 1}
	if got := thresh(o2); got != 96 {
		t.Errorf("ε=1 thresh = %d, want 96", got)
	}
	o3 := Options{Delta: 0.5}
	if got := o3.Resolve(defaultSeed).Iterations; got != 35 {
		t.Errorf("δ=0.5 iterations = %d, want 35", got)
	}
}

// TestZeroOptionsShape checks that every counter run at zero options
// runs exactly the trial count params resolves.
func TestZeroOptionsShape(t *testing.T) {
	want := Options{}.Resolve(defaultSeed).Iterations
	d := formula.RandomDNF(6, 4, 3, stats.NewRNG(3))
	for name, res := range map[string]Result{
		"bucketing":  ApproxMC(oracle.NewDNFSource(d), Options{}),
		"minimum":    ApproxModelCountMinDNF(d, Options{}),
		"estimation": ApproxModelCountEst(oracle.NewExhaustive(d.N, d.Eval), d.N, 3, Options{}),
		"karpluby":   KarpLuby(d, Options{}),
	} {
		if res.Iterations != want || len(res.PerIteration) != want {
			t.Errorf("%s: %d trials (%d estimates), want %d", name, res.Iterations, len(res.PerIteration), want)
		}
	}
}

// TestPaperConstantsIntegration runs one full ApproxMC with the verbatim
// paper constants (Thresh=150, t=35·log₂(1/δ)) on a small DNF to make sure
// the defaults hold together end to end.
func TestPaperConstantsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper constants are slow; skipping in -short mode")
	}
	rng := stats.NewRNG(139)
	d := formula.RandomDNF(12, 5, 3, rng)
	truth := float64(exact.CountDNF(d))
	src := oracle.NewDNFSource(d)
	res := ApproxMC(src, Options{Epsilon: 0.8, Delta: 0.2, RNG: stats.NewRNG(7)})
	if !stats.WithinFactor(res.Estimate, truth, 0.8) {
		t.Errorf("paper-constant ApproxMC estimate %g vs truth %g", res.Estimate, truth)
	}
}

// zeroTester answers every trailing-zero query with 0 and forks no
// state, so a count over it allocates only what the counter itself does.
type zeroTester struct{}

func (zeroTester) MaxTrailingZeros(hash.Func, int) int   { return 0 }
func (zeroTester) Queries() int64                        { return 0 }
func (zeroTester) ForkTester() oracle.TrailingZeroTester { return zeroTester{} }

// Algorithm 7 draws its t·Thresh polynomial hashes into one coefficient
// slab and one slab of function values, so a count's allocations do not
// grow with the draws: at the default ε and δ, 82 trials of Thresh 150,
// drawing them one at a time made two allocations per draw, 24,600 in
// all.
func TestEstimationDrawAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		ApproxModelCountEst(zeroTester{}, 12, 6, Options{RNG: stats.NewRNG(2), Parallelism: 1})
	})
	if allocs > 16 {
		t.Errorf("Algorithm 7 at default ε, δ: %.0f allocations per count, want ≤ 16", allocs)
	}
}
