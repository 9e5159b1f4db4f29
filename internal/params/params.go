// Package params owns the paper's (ε, δ) parameter policy. Every
// algorithm — the F0 sketches and model counters of Section 3
// (Algorithms 1–7), the Section 4 protocols and the Section 5 set
// streams — runs t = 35·log₂(1/δ) independent copies or median trials,
// each of width Thresh = 96/ε². Options is the one parameter set those
// packages take, and Resolve is the one place its unset fields get their
// defaults.
package params

import (
	"math"

	"mcf0/internal/par"
	"mcf0/internal/stats"
)

// Options parameterises an (ε, δ) estimator; the zero value selects the
// paper's constants.
type Options struct {
	// Epsilon is the multiplicative tolerance: estimates land within
	// [c/(1+ε), c(1+ε)] with probability ≥ 1−δ. Values ≤ 0 select 0.8.
	Epsilon float64
	// Delta is the failure probability. Values outside (0, 1) select 0.2.
	Delta float64
	// Thresh overrides the sketch width ⌈96/ε²⌉ when positive.
	Thresh int
	// Iterations overrides the copy or median-trial count
	// max(1, ⌈35·log₂(1/δ)⌉) when positive.
	Iterations int
	// RNG supplies randomness; a nil RNG selects a generator seeded with
	// the caller's fixed default, so every run is reproducible.
	RNG *stats.RNG
	// Parallelism bounds the worker pool the independent copies or trials
	// fan out across. 0 selects GOMAXPROCS; 1 forces serial. Randomness is
	// drawn serially and keyed by copy or trial index, never by worker, so
	// fixed-seed results are bit-identical at every level.
	Parallelism int
}

// Resolve returns o with every unset field filled:
//
//   - ε ≤ 0 → 0.8, δ ∉ (0, 1) → 0.2;
//   - Thresh = ⌈96/ε²⌉ (clamped to [1, 2^31−1]) and Iterations =
//     max(1, ⌈35·log₂(1/δ)⌉), the smallest integers that meet the
//     paper's bounds;
//   - Parallelism = par.Workers(Parallelism);
//   - a nil RNG becomes a generator seeded with seed, the calling
//     package's own default.
func (o Options) Resolve(seed uint64) Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.8
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		o.Delta = 0.2
	}
	if o.Thresh <= 0 {
		// Clamped: a tiny ε would overflow int, a huge one round to 0.
		o.Thresh = int(min(max(math.Ceil(96/(o.Epsilon*o.Epsilon)), 1), math.MaxInt32))
	}
	if o.Iterations <= 0 {
		o.Iterations = max(1, int(math.Ceil(35*math.Log2(1/o.Delta))))
	}
	if o.RNG == nil {
		o.RNG = stats.NewRNG(seed)
	}
	o.Parallelism = par.Workers(o.Parallelism)
	return o
}

// RangeParam turns the median maximum trailing-zero count med of a
// Flajolet–Martin rough count into Algorithm 7's range parameter
// r = min(n, ⌊med⌋ + 3): 2^r lands in the [2·F0, 50·F0] window when the
// FM estimate is within its factor-5 band (up to the window's proof
// slack). The offset is clamped to the hash width: for solution sets
// denser than 2^(n-1) the window is infeasible, and r = n is the best
// (slightly biased but still concentrated) choice.
func RangeParam(med float64, n int) int { return min(n, int(med)+3) }
