package counting

import (
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/par"
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
//
// The returned slice is sized once for thresh solutions, capped at
// presizeSols, so a cell with a few solutions under a large thresh does
// not reserve thresh headers.
func BoundedSAT(src oracle.Source, h *hash.Linear, m, thresh int, coarser ...bitvec.BitVec) (int, []bitvec.BitVec) {
	sols := make([]bitvec.BitVec, 0, min(thresh, presizeSols))
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

// presizeSols caps BoundedSAT's up-front capacity: 2·Thresh at the
// default ε = 0.8 fits, and a larger cell grows the slice by appending.
const presizeSols = 1024

// ApproxMC implements Algorithm 5, the Bucketing-based model counter of
// Chakraborty–Meel–Vardi obtained by transforming the Gibbons–Tirthapura
// streaming algorithm. Each trial draws h from H_Toeplitz(n, n) and grows
// the prefix length m until the cell h_m⁻¹(0^m) ∩ Sol(φ) is small
// (< Thresh); the trial's estimate is |cell| · 2^m, and the final answer is
// the median across trials.
//
// At most one Variant may follow opts; none runs Algorithm 5 as written.
// With Variant.BinarySearch, the prefix length is located by the
// galloping binary search of ApproxMC2, reducing oracle calls from O(n)
// to O(log n) per trial (ablation A2); Variant.Family replaces
// H_Toeplitz(n, n) (ablation A1).
//
// One solution pool serves every trial. The level-0 cell has no hash
// rows, so it is Sol(φ) for every trial: it is enumerated once, on its
// own fork of src, up to the pool bound 2·Thresh. Every cell of every
// trial is a subset of it (Section 3.2), so:
//   - when Sol(φ) runs out below the bound, the pool is all of Sol(φ) and
//     each trial is answered from it with no oracle call: the smallest m
//     whose cell holds fewer than Thresh members (capped at n) is found
//     by counting each cell over the pool (prefixFromPool; for n ≤ 64 and
//     Toeplitz draws, one batch hash per level over the pool packed once
//     per count, else one evaluation of hᵢ per pool member and a
//     histogram of zero-prefix lengths) — the m the linear scan and the
//     binary search both locate, since cells shrink as m grows;
//   - otherwise each trial searches with the oracle, its cells seeded
//     with the pool members they contain (BoundedSAT's coarser argument),
//     and deeper cells with the coarser cell the search holds.
//
// A cell's count min(Thresh, |cell|) does not depend on which solutions
// the oracle returns, so the located prefix and the estimate are those of
// asking every cell afresh; only OracleQueries, the SAT calls actually
// made, is lower.
//
// The t trials are independent and run across Options.Parallelism workers:
// all hash functions are drawn serially up front (the only randomness in a
// trial), and level 0 and every searching trial run on their own fork of
// src at every parallelism, so results and oracle-query totals are
// identical to a serial run for a fixed seed.
func ApproxMC(src oracle.Source, opts Options, v ...Variant) Result {
	if len(v) > 1 {
		panic("counting: ApproxMC takes at most one Variant")
	}
	var va Variant
	if len(v) == 1 {
		va = v[0]
	}
	n := src.NVars()
	p := opts.Resolve(defaultSeed)
	thresh, t := p.Thresh, p.Iterations
	var fam hash.Family = hash.NewToeplitz(n, n)
	if va.Family != nil {
		if va.Family.InBits() != n || va.Family.OutBits() != n {
			panic("counting: ApproxMC hash family must map n → n bits")
		}
		fam = va.Family
	}
	res := Result{Iterations: t, PerIteration: make([]float64, t)}
	hs := make([]*hash.Linear, t)
	next := p.RNG.Uint64
	for i := range hs {
		hs[i] = fam.Draw(next).(*hash.Linear)
	}
	lvl0 := src.Fork()
	limit := thresh + min(thresh, math.MaxInt-thresh) // 2·Thresh, saturating
	_, pool := BoundedSAT(lvl0, hs[0], 0, limit)
	release(lvl0)
	res.OracleQueries = lvl0.Queries()
	estimate := func(i, m, c int) { res.PerIteration[i] = float64(c) * math.Pow(2, float64(m)) }
	if len(pool) < limit {
		workers := par.Workers(p.Parallelism)
		shards := par.ShardCount(t, workers)
		hists := make([]int, shards*(n+1))
		scratch := bitvec.NewSlab(n, shards)
		xw := poolWords(pool, n)
		ys, idx := make([]uint64, shards*len(xw)), make([]int, shards*len(xw))
		par.RunSharded(t, workers, func(i, shard int) {
			lo, hi := shard*len(xw), (shard+1)*len(xw)
			m, c := prefixFromPool(hs[i], pool, xw, thresh, hists[shard*(n+1):(shard+1)*(n+1)],
				scratch[shard], ys[lo:hi], idx[lo:hi])
			estimate(i, m, c)
		})
	} else {
		srcs := trialForks(t, src.Fork)
		par.Run(t, p.Parallelism, func(i int) {
			var m, c int
			if va.BinarySearch {
				m, c = searchPrefixBinary(srcs[i], hs[i], thresh, thresh, pool)
			} else {
				m, c = searchPrefixLinear(srcs[i], hs[i], thresh, thresh, pool)
			}
			release(srcs[i])
			estimate(i, m, c)
		})
		res.OracleQueries += queries(srcs)
	}
	res.Estimate = stats.Median(res.PerIteration)
	return res
}

// poolWords packs a pool over n ≤ 64 variables one word per member, the
// batch form hash.Linear.PrefixWords reads; it is nil for wider pools.
func poolWords(pool []bitvec.BitVec, n int) []uint64 {
	if n > 64 {
		return nil
	}
	xw := make([]uint64, len(pool))
	for k, x := range pool {
		xw[k] = x.Words()[0]
	}
	return xw
}

// prefixFromPool locates h's prefix length from a pool holding all of
// Sol(φ), with no oracle call. It returns the smallest m with |cell_m| <
// thresh, or n when there is none, and min(thresh, |cell_m|) — what
// searchPrefixLinear and searchPrefixBinary return on the oracle.
//
// With the pool packed as xw (poolWords) and a draw that has a
// carry-less kernel, |cell_m| is the kept count of one PrefixWords call
// under the bound with bits 0..m−1 clear and the rest set, which admits
// exactly the words with an all-zero m-bit prefix (ys and idx are its
// scratch, one entry per member), for m = 1, 2, … while the cell holds
// at least thresh.
// Otherwise each member takes ZeroPrefixLen with scratch, and hist (n+1
// counters, overwritten) counts the members by the length of the
// all-zero prefix of h(x), so |cell_m| is the sum of hist[m…n].
func prefixFromPool(h *hash.Linear, pool []bitvec.BitVec, xw []uint64, thresh int, hist []int, scratch bitvec.BitVec, ys []uint64, idx []int) (int, int) {
	n := h.InBits()
	m, c := 0, len(pool)
	if _, ok := h.PrefixWords(n, 0, nil, nil, nil); xw != nil && ok {
		for c >= thresh && m < n {
			m++
			c, _ = h.PrefixWords(n, ^uint64(0)<<uint(m), xw, ys, idx)
		}
		return m, min(c, thresh)
	}
	clear(hist)
	for _, x := range pool {
		hist[h.ZeroPrefixLen(x, scratch)]++
	}
	for c >= thresh && m < n {
		c -= hist[m]
		m++
	}
	return m, min(c, thresh)
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
