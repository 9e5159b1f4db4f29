package counting

import (
	"math"

	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/par"
	"mcf0/internal/params"
	"mcf0/internal/stats"
)

// ApproxModelCountEst implements Algorithm 7, the Estimation-based counter.
// It draws t × Thresh hash functions from the s-wise independent polynomial
// family (s = SWiseIndependence(ε)), asks tz's FindMaxRange for each one's
// maximum trailing-zero count over Sol(φ), and combines them with the
// coupon-collector estimator of Lemma 3, which requires a range parameter
// r with 2·F0 ≤ 2^r ≤ 50·F0 (obtain one with RoughCount). n must be ≤ 64
// (the polynomial family's field size).
// Trials run across Options.Parallelism workers: the t·Thresh hash
// functions are drawn serially up front into one slab (in trial-major
// order, matching a serial run), and every trial asks its own fork of tz
// at every parallelism, so OracleQueries sums the forks' meters.
func ApproxModelCountEst(tz oracle.TrailingZeroTester, n, r int, opts Options) Result {
	p := opts.Resolve(defaultSeed)
	thresh, t := p.Thresh, p.Iterations
	hs := hash.NewPoly(n, SWiseIndependence(p.Epsilon)).DrawN(t*thresh, p.RNG.Uint64)
	tzs := trialForks(t, tz.ForkTester)
	res := Result{Iterations: t, PerIteration: make([]float64, t)}
	par.Run(t, p.Parallelism, func(i int) {
		hits := 0
		for j := 0; j < thresh; j++ {
			if tzs[i].MaxTrailingZeros(hs[i*thresh+j], n) >= r {
				hits++
			}
		}
		res.PerIteration[i] = stats.CouponEstimate(hits, thresh, r)
	})
	res.OracleQueries = queries(tzs)
	res.Estimate = stats.Median(res.PerIteration)
	return res
}

// SWiseIndependence returns Algorithm 7's independence s = ⌈10·log₂(1/ε)⌉
// of the polynomial hash family, at least 2.
func SWiseIndependence(eps float64) int {
	return max(2, int(math.Ceil(10*math.Log2(1/eps))))
}

// RoughCount is the Flajolet–Martin-style rough counter of Section 3.4: it
// draws pairwise-independent linear hashes from H_xor(n, n), takes the
// maximum trailing-zero count over Sol(φ) for each (one FindMaxRange of
// tz, i.e. O(log n) oracle calls for oracle.LinearTester), and returns the
// median estimate 2^r together with a range parameter suitable for
// ApproxModelCountEst. tz must accept linear hashes.
// A single trial satisfies F0/5 ≤ 2^r ≤ 5·F0 with probability 3/5
// (Alon–Matias–Szegedy); the median over trials concentrates this.
func RoughCount(tz oracle.TrailingZeroTester, n, trials int, rng *stats.RNG) (rParam int, estimate float64) {
	fam := hash.NewXor(n, n)
	var rs []float64
	next := rng.Uint64
	for i := 0; i < trials; i++ {
		r := tz.MaxTrailingZeros(fam.Draw(next), n)
		if r < 0 {
			return -1, 0 // unsatisfiable
		}
		rs = append(rs, float64(r))
	}
	med := stats.Median(rs)
	return params.RangeParam(med, n), math.Pow(2, med)
}
