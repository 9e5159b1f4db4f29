package counting

import (
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/par"
	"mcf0/internal/stats"
)

// maxTrailingZeroser is the one-sweep fast path some testers (notably the
// exhaustive ground-truth backend) provide.
type maxTrailingZeroser interface {
	MaxTrailingZeros(h hash.Func) int
}

// FindMaxRange implements Proposition 3: the largest t such that some
// solution's hash value ends in t zero bits, found by binary search with
// O(log n) oracle queries. Returns −1 when φ is unsatisfiable.
func FindMaxRange(tz oracle.TrailingZeroTester, h hash.Func, maxT int) int {
	if fast, ok := tz.(maxTrailingZeroser); ok {
		r := fast.MaxTrailingZeros(h)
		if r > maxT {
			r = maxT
		}
		return r
	}
	if !tz.ExistsTrailingZeros(h, 0) {
		return -1
	}
	lo, hi := 0, maxT // invariant: Exists(lo) true; answer in [lo, hi]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tz.ExistsTrailingZeros(h, mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// FindMaxRangeLinear specialises FindMaxRange to linear hash functions:
// "h(x) ends in ≥ t zeros" is the XOR system SuffixZeroSystem(t), so any
// Source backend (in particular the CNF-XOR SAT solver) decides it in one
// query.
func FindMaxRangeLinear(src oracle.Source, h *hash.Linear) int {
	sat := func(t int) bool {
		cons := h.SuffixZeroSystem(t)
		if !cons.Consistent() {
			return false
		}
		return src.Enumerate(cons, nil, 1, func(bitvec.BitVec) bool { return true }) > 0
	}
	if !sat(0) {
		return -1
	}
	lo, hi := 0, h.OutBits()
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if sat(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ApproxModelCountEst implements Algorithm 7, the Estimation-based counter.
// It draws t × Thresh hash functions from the s-wise independent polynomial
// family (s = SWiseIndependence(ε)), computes each one's maximum
// trailing-zero count over Sol(φ) via FindMaxRange, and combines them with
// the coupon-collector estimator of Lemma 3, which requires a range
// parameter r with 2·F0 ≤ 2^r ≤ 50·F0 (obtain one with RoughCount). n must
// be ≤ 64 (the polynomial family's field size).
// Trials run across Options.Parallelism workers: the t·Thresh hash
// functions are drawn serially up front (in trial-major order, matching a
// serial run), and every trial asks its own fork of tz at every
// parallelism, so OracleQueries sums the forks' meters.
func ApproxModelCountEst(tz oracle.TrailingZeroTester, n, r int, opts Options) Result {
	p := opts.resolve()
	thresh, t := p.Thresh, p.Iterations
	fam := hash.NewPoly(n, SWiseIndependence(p.Epsilon))
	hs := make([]hash.Func, t*thresh)
	for i := range hs {
		hs[i] = fam.Draw(p.RNG.Uint64)
	}
	tzs := trialForks(t, tz.ForkTester)
	res := Result{Iterations: t, PerIteration: make([]float64, t)}
	par.Run(t, p.Parallelism, func(i int) {
		hits := 0
		for j := 0; j < thresh; j++ {
			if FindMaxRange(tzs[i], hs[i*thresh+j], n) >= r {
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
// maximum trailing-zero count over Sol(φ) for each (one FindMaxRangeLinear,
// i.e. O(log n) oracle calls each), and returns the median estimate 2^r
// together with a range parameter suitable for ApproxModelCountEst.
// A single trial satisfies F0/5 ≤ 2^r ≤ 5·F0 with probability 3/5
// (Alon–Matias–Szegedy); the median over trials concentrates this.
func RoughCount(src oracle.Source, trials int, rng *stats.RNG) (rParam int, estimate float64) {
	n := src.NVars()
	fam := hash.NewXor(n, n)
	var rs []float64
	for i := 0; i < trials; i++ {
		h := fam.Draw(rng.Uint64).(*hash.Linear)
		r := FindMaxRangeLinear(src, h)
		if r < 0 {
			return -1, 0 // unsatisfiable
		}
		rs = append(rs, float64(r))
	}
	med := stats.Median(rs)
	return RangeParam(med, n), math.Pow(2, med)
}

// RangeParam turns the median maximum trailing-zero count med of a rough
// count into Algorithm 7's range parameter r = min(n, ⌊med⌋ + 3): 2^r
// lands in the [2·F0, 50·F0] window when the FM estimate is within its
// factor-5 band (up to the window's proof slack). The offset is clamped to
// the hash width: for solution sets denser than 2^(n-1) the window is
// infeasible, and r = n is the best (slightly biased but still
// concentrated) choice.
func RangeParam(med float64, n int) int { return min(n, int(med)+3) }
