package counting

import (
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// BoundedSAT implements Proposition 1: it returns
// min(thresh, |Sol(φ ∧ h_m(x) = 0^m)|) together with the enumerated
// solutions. For the CNF oracle backend this costs O(thresh) NP calls; for
// the DNF backend it is polynomial time.
//
// coarser may hold solutions of a coarser cell of the same h (prefix
// m' ≤ m). Since the cells are nested (Section 3.2), those with
// h_m(x) = 0^m lie in this cell: they are kept without asking the oracle,
// which then enumerates only the rest, up to thresh in all. When they
// already reach thresh no oracle call is made. The returned count is
// min(thresh, |cell|) either way.
func BoundedSAT(src oracle.Source, h *hash.Linear, m, thresh int, coarser ...bitvec.BitVec) (int, []bitvec.BitVec) {
	var sols []bitvec.BitVec
	for _, x := range coarser {
		if len(sols) < thresh && h.PrefixIsZero(x, m) {
			sols = append(sols, x)
		}
	}
	if len(sols) < thresh {
		src.Enumerate(h.ZeroPrefixSystem(m), sols, thresh-len(sols), func(x bitvec.BitVec) bool {
			sols = append(sols, x)
			return true
		})
	}
	return len(sols), sols
}

// ApproxMC implements Algorithm 5, the Bucketing-based model counter of
// Chakraborty–Meel–Vardi obtained by transforming the Gibbons–Tirthapura
// streaming algorithm. Each trial draws h from H_Toeplitz(n, n) and grows
// the prefix length m until the cell h_m⁻¹(0^m) ∩ Sol(φ) is small
// (< Thresh); the trial's estimate is |cell| · 2^m, and the final answer is
// the median across trials.
//
// With Options.BinarySearch, the prefix length is located by the galloping
// binary search of ApproxMC2, reducing oracle calls from O(n) to O(log n)
// per trial (ablation A2).
//
// Each distinct cell is asked once. The level-0 cell has no hash rows, so
// it is the same for every trial: it is enumerated once, on its own
// source, and when it is below Thresh every trial returns it with no
// further oracle call. Deeper cells are seeded with the solutions of the
// coarser cell the search holds (BoundedSAT's coarser argument), which
// changes which solutions the oracle is asked for but never a cell's
// count, so the located prefix and the estimate are unaffected.
//
// The t trials are independent and run across Options.Parallelism workers:
// all hash functions are drawn serially up front (the only randomness in a
// trial), and stateful oracle backends are forked per trial at every
// parallelism, so results and oracle-query totals are identical to a
// serial run for a fixed seed.
func ApproxMC(src oracle.Source, opts Options) Result {
	n := src.NVars()
	p := opts.resolve()
	thresh, t := p.Thresh, p.Iterations
	var fam hash.Family = hash.NewToeplitz(n, n)
	if opts.Family != nil {
		if opts.Family.InBits() != n || opts.Family.OutBits() != n {
			panic("counting: ApproxMC hash family must map n → n bits")
		}
		fam = opts.Family
	}
	res := Result{Iterations: t, PerIteration: make([]float64, t)}
	hs := make([]*hash.Linear, t)
	for i := range hs {
		hs[i] = fam.Draw(p.RNG.Uint64).(*hash.Linear)
	}
	// Sources 0…t−1 serve the trials; source t serves level 0, where any
	// trial's h has no rows to add.
	ts, workers := newTrialSources(src, t+1, p.Parallelism)
	before := src.Queries()
	c0, sols0 := BoundedSAT(ts.at(t), hs[0], 0, thresh)
	ts.release(t)
	runTrials(t, workers, func(i int) {
		var m, c int
		if opts.BinarySearch {
			m, c = searchPrefixBinary(ts.at(i), hs[i], thresh, c0, sols0)
		} else {
			m, c = searchPrefixLinear(ts.at(i), hs[i], thresh, c0, sols0)
		}
		ts.release(i)
		res.PerIteration[i] = float64(c) * math.Pow(2, float64(m))
	})
	res.OracleQueries = ts.queriesSince(before)
	res.Estimate = stats.Median(res.PerIteration)
	return res
}

// searchPrefixLinear scans m = 1, 2, … from the level-0 cell (count c0,
// solutions sols0) until the cell is small, mirroring lines 6–10 of
// Algorithm 5; each level is seeded with the level above. It returns the
// final prefix length and cell size.
func searchPrefixLinear(src oracle.Source, h *hash.Linear, thresh, c0 int, sols0 []bitvec.BitVec) (int, int) {
	n := h.InBits()
	m, c, sols := 0, c0, sols0
	for c >= thresh && m < n {
		m++
		c, sols = BoundedSAT(src, h, m, thresh, sols...)
	}
	return m, c
}

// searchPrefixBinary finds the smallest m with |cell_m| < thresh by binary
// search, exploiting Sol(φ ∧ h_{m}=0) ⊇ Sol(φ ∧ h_{m+1}=0) — the
// monotonicity observed in "Further Optimizations" of Section 3.2. Every
// probe is seeded with the solutions of the lo cell, which contains it.
func searchPrefixBinary(src oracle.Source, h *hash.Linear, thresh, c0 int, sols0 []bitvec.BitVec) (int, int) {
	n := h.InBits()
	if c0 < thresh {
		return 0, c0
	}
	// Invariant: count(lo) >= thresh, count(hi) < thresh (or hi = n).
	lo, hi, loSols := 0, n, sols0
	cHi, _ := BoundedSAT(src, h, n, thresh, loSols...)
	if cHi >= thresh {
		return n, cHi
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		c, sols := BoundedSAT(src, h, mid, thresh, loSols...)
		if c >= thresh {
			lo, loSols = mid, sols
		} else {
			hi, cHi = mid, c
		}
	}
	return hi, cHi
}
