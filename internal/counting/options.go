// Package counting implements the model-counting algorithms of the paper:
//
//   - BoundedSAT (Proposition 1) and ApproxMC (Algorithm 5), the
//     Bucketing-based counter, with both the paper's linear search and the
//     ApproxMC2 binary search over prefix lengths;
//   - FindMin (Proposition 2) and ApproxModelCountMin (Algorithm 6), the
//     Minimum-based counter — an FPRAS for DNF;
//   - ApproxModelCountEst (Algorithm 7), the Estimation-based counter,
//     plus the Flajolet–Martin rough counter RoughCount that supplies its
//     range parameter r; both ask Proposition 3's FindMaxRange of an
//     oracle.TrailingZeroTester (its MaxTrailingZeros method);
//   - a Karp–Luby Monte-Carlo FPRAS for #DNF as the classical baseline.
//
// All algorithms run against the oracle abstractions of internal/oracle, so
// accuracy experiments and oracle-call accounting are backend-independent.
//
// The 35·log₂(1/δ) independent median trials of every counter run across a
// bounded worker pool (Options.Parallelism, default GOMAXPROCS). All
// randomness is drawn serially before the pool starts and every trial
// runs on its own fork of the oracle handle (every handle forks, see
// internal/oracle), so estimates, PerIteration values, and oracle-query
// totals for a fixed seed are identical at every parallelism level.
package counting

import (
	"mcf0/internal/hash"
	"mcf0/internal/params"
	"mcf0/internal/stats"
)

// Options parameterises the (ε, δ) algorithms: the shared parameter set
// of params.Options plus the two fields only the counters have. The zero
// value selects the paper's constants (see params.Resolve). Tests dial
// Thresh and Iterations down explicitly.
type Options struct {
	// Epsilon, Delta, Thresh and Iterations are params.Options' (ε, δ)
	// parameters.
	Epsilon    float64
	Delta      float64
	Thresh     int
	Iterations int
	// BinarySearch selects the ApproxMC2-style galloping/binary search
	// over prefix lengths instead of Algorithm 5's linear scan.
	BinarySearch bool
	// Family overrides the linear hash family (ablation A1: H_Toeplitz vs
	// H_xor). It must have the same shape as the default — n → n for
	// ApproxMC, n → 3n for ApproxModelCountMin. Nil selects H_Toeplitz.
	Family hash.Family
	// RNG supplies randomness; a fixed-seed generator is used when nil so
	// that every run is reproducible by default.
	RNG *stats.RNG
	// Parallelism bounds the worker pool that runs the independent median
	// trials. 0 selects GOMAXPROCS; 1 forces serial execution; values above
	// the trial count are clamped. Hash functions (and per-trial RNG
	// streams where an algorithm needs in-trial randomness) are always
	// drawn serially up front, so for a fixed seed the estimate,
	// PerIteration values, and oracle-query totals are identical at every
	// parallelism level.
	Parallelism int
}

// resolve returns o's shared parameters with every unset one filled; a
// nil RNG draws from the package's fixed seed.
func (o Options) resolve() params.Options {
	return params.Options{
		Epsilon:     o.Epsilon,
		Delta:       o.Delta,
		Thresh:      o.Thresh,
		Iterations:  o.Iterations,
		RNG:         o.RNG,
		Parallelism: o.Parallelism,
	}.Resolve(0x6d63663073656564) // "mcf0seed"
}

// Result reports an estimate together with the work that produced it.
type Result struct {
	// Estimate is the (ε, δ)-approximation of |Sol(φ)|.
	Estimate float64
	// OracleQueries is the cumulative NP-oracle (or per-term solve) count.
	OracleQueries int64
	// Iterations is the number of median trials executed.
	Iterations int
	// PerIteration holds each trial's individual estimate.
	PerIteration []float64
}
