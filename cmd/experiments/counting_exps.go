package main

import (
	"fmt"
	"math"
	"time"

	"mcf0/internal/counting"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/params"
	"mcf0/internal/stats"
)

func init() {
	register("E01-approxmc", "Theorem 2: ApproxMC accuracy and oracle calls (Bucketing)", runE1)
	register("E02-minimum", "Theorem 3: Minimum-based counter; FPRAS scaling for DNF", runE2)
	register("E03-estimation", "Theorem 4: Estimation-based counter; O(log n) oracle calls", runE3)
	register("A01-hashfamily", "Ablation: H_Toeplitz vs H_xor (§3.2 remark)", runA1)
	register("A02-search", "Ablation: linear vs binary prefix search (ApproxMC vs ApproxMC2)", runA2)
	register("A03-shootout", "§3.5: DNF FPRAS shootout — Bucketing vs Minimum vs Karp-Luby", runA3)
}

func runE1(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 5, 12)
	}
	rng := stats.NewRNG(c.seed)
	tab := newTable("formula", "truth", "rel.err(med)", "in-band", "oracle calls", "per-trial est range")
	// DNF instances (polynomial-time oracle).
	for _, k := range []int{4, 8} {
		d := formula.RandomDNF(14, k, 5, rng)
		truth := float64(exact.CountDNF(d))
		src := oracle.NewDNFSource(d)
		var last counting.Result
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			last = counting.ApproxMC(src, withSeed(harnessOpts(seed, c), seed))
			return last.Estimate
		})
		lo, hi := minMax(last.PerIteration)
		tab.add(fmt.Sprintf("DNF n=14 k=%d", k), truth, re, rate, "poly-time", fmt.Sprintf("[%.3g, %.3g]", lo, hi))
	}
	// CNF instances (SAT-backed NP oracle).
	for _, n := range []int{10, 12} {
		cnf, _ := formula.PlantedKCNF(n, 3*n/2, 3, rng)
		truth := float64(exact.CountCNF(cnf))
		var queries int64
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			src := oracle.NewCNFSource(cnf)
			res := counting.ApproxMC(src, withSeed(harnessOpts(seed, c), seed))
			queries = res.OracleQueries
			return res.Estimate
		})
		tab.add(fmt.Sprintf("CNF n=%d planted", n), truth, re, rate, queries, "")
	}
	tab.print()
	fmt.Println("  paper claim: estimates within (1+ε) w.p. ≥ 1−δ; O(n/ε²·log(1/δ)) NP calls (linear search)")
}

func runE2(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 4, 10)
	}
	rng := stats.NewRNG(c.seed)
	tab := newTable("DNF", "truth", "rel.err(med)", "in-band", "time/count")
	for _, tc := range []struct{ n, k, w int }{{16, 8, 5}, {24, 16, 8}, {40, 16, 10}} {
		d := formula.RandomDNF(tc.n, tc.k, tc.w, rng)
		truth := float64(exact.CountDNF(d))
		var dur time.Duration
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			var res counting.Result
			dur = timeIt(func() {
				res = counting.ApproxModelCountMinDNF(d, withSeed(harnessOpts(seed, c), seed))
			})
			return res.Estimate
		})
		tab.add(fmt.Sprintf("n=%d k=%d w=%d", tc.n, tc.k, tc.w), truth, re, rate, dur.String())
	}
	// Scaling in k beyond exact ground truth: report time only.
	scale := newTable("k (terms, n=48 w=12)", "time/count")
	for _, k := range []int{32, 64, 128} {
		if c.quick && k > 32 {
			break
		}
		d := formula.RandomDNF(48, k, 12, rng)
		dur := timeIt(func() {
			counting.ApproxModelCountMinDNF(d, withSeed(harnessOpts(1, c), 1))
		})
		scale.add(k, dur.String())
	}
	tab.print()
	fmt.Println("  FPRAS time scaling in k (Theorem 3: O(n⁴·k·1/ε²·log 1/δ)):")
	scale.print()
}

func runE3(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 4, 10)
	}
	rng := stats.NewRNG(c.seed)
	tab := newTable("formula", "truth", "r", "rel.err(med)", "in-band")
	for _, n := range []int{10, 12} {
		d := formula.RandomDNF(n, 5, 3, rng)
		truth := float64(exact.CountDNF(d))
		r := int(math.Ceil(math.Log2(2 * truth)))
		if r > n {
			r = n
		}
		ex := oracle.NewExhaustive(n, d.Eval)
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			o := withSeed(harnessOpts(seed, c), seed)
			o.Thresh = 48
			return counting.ApproxModelCountEst(ex, n, r, o).Estimate
		})
		tab.add(fmt.Sprintf("DNF n=%d", n), truth, r, re, rate)
	}
	tab.print()
	// Oracle-call scaling: FindMaxRange over linear hashes uses O(log n)
	// SAT calls.
	scale := newTable("n", "SAT calls per FindMaxRange", "log2(n)")
	for _, n := range []int{8, 16, 32, 64} {
		cnf, _ := formula.PlantedKCNF(n, n, 3, rng)
		src := oracle.NewCNFSource(cnf)
		h := hash.NewXor(n, n).Draw(stats.NewRNG(c.seed).Uint64).(*hash.Linear)
		before := src.Queries()
		oracle.LinearTester{Source: src}.MaxTrailingZeros(h, n)
		scale.add(n, src.Queries()-before, math.Log2(float64(n)))
	}
	fmt.Println("  oracle-call scaling (Proposition 3: O(log n) per hash):")
	scale.print()
}

func runA1(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 5, 12)
	}
	rng := stats.NewRNG(c.seed)
	n := 14
	d := formula.RandomDNF(n, 6, 5, rng)
	truth := float64(exact.CountDNF(d))
	src := oracle.NewDNFSource(d)
	tab := newTable("family", "repr bits", "rel.err(med)", "in-band", "time")
	for _, fam := range []hash.Family{hash.NewToeplitz(n, n), hash.NewXor(n, n)} {
		var bits int
		if fam.Name() == "toeplitz" {
			bits = 2*n - 1 + n
		} else {
			bits = n*n + n
		}
		var dur time.Duration
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			o := withSeed(harnessOpts(seed, c), seed)
			var res counting.Result
			dur = timeIt(func() { res = counting.ApproxMC(src, o, counting.Variant{Family: fam}) })
			return res.Estimate
		})
		tab.add(fam.Name(), bits, re, rate, dur.String())
	}
	tab.print()
	fmt.Println("  paper claim: both 2-wise independent; Θ(n) vs Θ(n²) bits; no accuracy difference")
}

func runA2(c runConfig) {
	rng := stats.NewRNG(c.seed)
	tab := newTable("n", "linear-scan calls", "binary-search calls", "ratio")
	for _, n := range []int{12, 16, 20, 24} {
		if c.quick && n > 16 {
			break
		}
		cnf := formula.RandomKCNF(n, n/2, 3, rng) // loose: many solutions, deep m*
		linSrc := oracle.NewCNFSource(cnf)
		binSrc := oracle.NewCNFSource(cnf)
		lin := counting.ApproxMC(linSrc, withSeed(harnessOpts(1, c), c.seed))
		bin := counting.ApproxMC(binSrc, withSeed(harnessOpts(1, c), c.seed), counting.Variant{BinarySearch: true})
		ratio := float64(lin.OracleQueries) / float64(bin.OracleQueries)
		tab.add(n, lin.OracleQueries, bin.OracleQueries, ratio)
	}
	tab.print()
	fmt.Println("  paper claim: ApproxMC2 reduces calls O(n·…) → O(log n·…); ratio grows ~n/log n")
}

func runA3(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 4, 10)
	}
	rng := stats.NewRNG(c.seed)
	tab := newTable("DNF", "algorithm", "rel.err(med)", "in-band", "time/count")
	for _, tc := range []struct{ n, k, w int }{{16, 8, 5}, {24, 16, 8}} {
		d := formula.RandomDNF(tc.n, tc.k, tc.w, rng)
		truth := float64(exact.CountDNF(d))
		label := fmt.Sprintf("n=%d k=%d", tc.n, tc.k)
		type algo struct {
			name string
			run  func(seed uint64) float64
		}
		src := oracle.NewDNFSource(d)
		algos := []algo{
			{"bucketing (ApproxMC)", func(seed uint64) float64 {
				return counting.ApproxMC(src, withSeed(harnessOpts(seed, c), seed)).Estimate
			}},
			{"minimum", func(seed uint64) float64 {
				return counting.ApproxModelCountMinDNF(d, withSeed(harnessOpts(seed, c), seed)).Estimate
			}},
			{"karp-luby", func(seed uint64) float64 {
				o := withSeed(harnessOpts(seed, c), seed)
				o.Epsilon = 0.4
				return counting.KarpLuby(d, o).Estimate
			}},
		}
		for _, a := range algos {
			var dur time.Duration
			re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
				var est float64
				dur = timeIt(func() { est = a.run(seed) })
				return est
			})
			tab.add(label, a.name, re, rate, dur.String())
		}
	}
	tab.print()
	fmt.Println("  §3.5 empirical-study direction: hashing-based FPRAS vs Monte-Carlo")
}

func withSeed(o params.Options, seed uint64) params.Options {
	o.RNG = stats.NewRNG(seed*2654435761 + 1)
	return o
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
