// Package stats provides the deterministic randomness source and the small
// statistical helpers (medians, accuracy checks) shared by the counting and
// streaming algorithms and the experiment harness.
package stats

import (
	"math"
	"sort"
)

// RNG is a splitmix64 pseudo-random generator. It is deterministic given a
// seed, cheap, and has no shared state, which keeps every experiment in the
// repository reproducible. Not safe for concurrent use; derive per-goroutine
// generators with Split.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Mix64 is the splitmix64 finalizer, a bijection on uint64. It is the
// one mixing function behind every seeded stream in the repository (RNG,
// fault decisions, load generation, vector fingerprints); changing it
// changes every fixed-seed result.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero bound")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns a uniform bit.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Median returns the median of xs (mean of the middle pair for even
// lengths). It does not modify xs. Panics on empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean. Panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WithinFactor reports whether est lies in [truth/(1+eps), truth*(1+eps)],
// the paper's (ε, δ) accuracy band. A truth of zero requires est zero.
func WithinFactor(est, truth, eps float64) bool {
	if truth == 0 {
		return est == 0
	}
	return est >= truth/(1+eps) && est <= truth*(1+eps)
}

// CouponEstimate is the Lemma 3 estimator shared by the Estimation-based
// model counter and F0 sketch: with hits out of total hash functions
// reaching r trailing zeros, the distinct-count estimate is
// ln(1 − hits/total) / ln(1 − 2^−r). Returns +0 when no hash hit and
// +Inf when every hash hit.
func CouponEstimate(hits, total, r int) float64 {
	frac := float64(hits) / float64(total)
	if hits == 0 {
		return 0 // the formula's ln 1 over a negative logarithm is −0
	}
	if frac >= 1 {
		return math.Inf(1)
	}
	return math.Log(1-frac) / couponDenom(r)
}

// couponDenom returns ln(1 − 2^−r). From r = 54 on, 1 − 2^−r rounds to 1
// in float64 and the logarithm to 0; there ln(1 − 2^−r) = −2^−r − 2^−2r/2
// − …, which is −2^−r to within float64 precision. Below 54 the direct
// expression is kept, so no estimate there moves by a bit.
func couponDenom(r int) float64 {
	if r >= 54 {
		return -math.Ldexp(1, -r)
	}
	return math.Log(1 - math.Pow(2, float64(-r)))
}

// MedianInt returns the median of integer samples as a float64.
func MedianInt(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Median(fs)
}
