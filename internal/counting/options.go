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
)

// Options is the (ε, δ) parameter set every counter takes; the zero value
// selects the paper's constants (see params.Options.Resolve). Tests dial
// Thresh and Iterations down explicitly. Hash functions, and per-trial
// RNG streams where an algorithm needs in-trial randomness, are always
// drawn serially up front, so for a fixed seed the estimate, PerIteration
// values and oracle-query totals are identical at every Parallelism.
type Options = params.Options

// defaultSeed seeds the generator of an Options with a nil RNG.
const defaultSeed = 0x6d63663073656564 // "mcf0seed"

// Variant selects ApproxMC's ablation switches; the zero value is
// Algorithm 5 as written.
type Variant struct {
	// BinarySearch selects the ApproxMC2-style galloping/binary search
	// over prefix lengths instead of Algorithm 5's linear scan
	// (ablation A2).
	BinarySearch bool
	// Family overrides the linear hash family (ablation A1: H_Toeplitz
	// vs H_xor, and the sparse families); it must map n → n bits, or
	// ApproxMC panics. Nil selects H_Toeplitz(n, n).
	Family hash.Family
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
