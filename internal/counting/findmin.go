package counting

import (
	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/oracle"
	"mcf0/internal/par"
	"mcf0/internal/stats"
)

// FindMinDNF implements Proposition 2's polynomial-time case: it inserts
// the smallest elements of h(Sol(φ)) for a DNF φ into set, which then
// holds the k smallest (k its capacity) of those and of whatever it held
// before. Per term, the image of h over the term's solution cube is an
// affine image searched with Gaussian elimination.
//
// The walk is pruned across terms (and against the set's prior contents):
// once the set is full, a term's successor chain is abandoned as soon as
// it reaches the current maximum, so for large k most terms cost a single
// lex-min computation. Each term keeps one ImageSearcher across its whole
// walk: the searcher's rewindable system makes consecutive Successor
// probes cost one row operation instead of a clone-and-replay of the
// prefix, and the element buffer is reused across steps (Insert copies a
// value only when it enters the set).
func FindMinDNF(d *formula.DNF, h *hash.Linear, set *kmv.Set) {
	if h.InBits() != d.N {
		panic("counting: hash input width != variable count")
	}
	cur := bitvec.New(h.OutBits())
	for _, t := range d.Terms {
		if s, ok := termImageSearcher(d.N, t, h); ok {
			FindMinImage(s, cur, set)
		}
	}
}

// FindMinImage inserts the smallest elements of an affine image into set,
// walking the image in ascending order with cur as the element buffer. The
// walk stops at the first value that cannot enter, and skips the successor
// search once the value just inserted is the maximum of a full set.
func FindMinImage(s *gf2.ImageSearcher, cur bitvec.BitVec, set *kmv.Set) {
	found := s.MinInto(cur)
	for found && set.Candidate(cur) {
		set.Insert(cur)
		found = set.Candidate(cur) && s.SuccessorInto(cur, cur)
	}
}

// termImageSearcher builds the affine image {h(x) : x ⊨ t}: fixing the
// term's variables folds their contribution into the offset, leaving the
// hash matrix restricted to the free columns.
func termImageSearcher(n int, t formula.Term, h *hash.Linear) (*gf2.ImageSearcher, bool) {
	norm, ok := t.Normalize()
	if !ok {
		return nil, false
	}
	fixed, val := formula.TermFixed(n, norm)
	free := make([]bool, n)
	for i := range free {
		free[i] = !fixed[i]
	}
	aFree := h.A().SelectColumns(free)
	offset := h.A().MulVec(val).Xor(h.B)
	return gf2.NewImageSearcher(aFree, offset, nil), true
}

// FindMinOracle implements Proposition 2's NP-oracle case: the same prefix
// search into set, but each prefix-feasibility question "is there x ⊨ φ with
// h(x) starting y₁…yₗ?" becomes one oracle query (the paper's O(p·m) NP
// calls). It works for any Source backend, in particular CNF. Unlike
// FindMinImage it also searches for the successor of the value that
// fills the set; the metered query counts include that search.
func FindMinOracle(src oracle.Source, h *hash.Linear, set *kmv.Set) {
	s := newOracleImageSearcher(src, h)
	cur, ok := s.lexMinWithPrefix(nil)
	for ok && set.Candidate(cur) {
		set.Insert(cur)
		cur, ok = s.successor(cur)
	}
}

// oracleImageSearcher mirrors gf2.ImageSearcher with feasibility decided by
// the oracle instead of pure linear algebra (φ is not affine for CNF). Like
// its affine sibling it keeps one rewindable constraint system for the
// whole p-minima walk, via the same gf2.PrefixStack: a feasibility probe
// rewinds to the divergence point of its prefix and the committed one
// instead of rebuilding the stacked system row by row. The oracle only
// reads the system's equations during Enumerate (the gf2.System ownership
// contract), so the pooled rows are safe to recycle between probes.
type oracleImageSearcher struct {
	src oracle.Source
	h   *hash.Linear

	ps        *gf2.PrefixStack
	prefixBuf []bool
	curBuf    []bool
}

func newOracleImageSearcher(src oracle.Source, h *hash.Linear) *oracleImageSearcher {
	return &oracleImageSearcher{src: src, h: h, ps: gf2.NewPrefixStack(h.A(), h.B, nil)}
}

// feasible reports whether some x ⊨ φ has h(x) starting with prefix.
// Linearly inconsistent prefixes are rejected without an oracle call.
func (s *oracleImageSearcher) feasible(prefix []bool) bool {
	if !s.ps.ExtendTo(prefix) {
		return false
	}
	return s.src.Enumerate(s.ps.System(), nil, 1, func(bitvec.BitVec) bool { return true }) > 0
}

func (s *oracleImageSearcher) lexMinWithPrefix(prefix []bool) (bitvec.BitVec, bool) {
	m := s.h.OutBits()
	if !s.feasible(prefix) {
		return bitvec.BitVec{}, false
	}
	cur := append(s.curBuf[:0], prefix...)
	for i := len(prefix); i < m; i++ {
		cur = append(cur, false)
		if !s.feasible(cur) {
			cur[i] = true
		}
	}
	s.curBuf = cur[:0]
	y := bitvec.New(m)
	for i, bit := range cur {
		if bit {
			y.Set(i, true)
		}
	}
	return y, true
}

func (s *oracleImageSearcher) successor(y bitvec.BitVec) (bitvec.BitVec, bool) {
	m := s.h.OutBits()
	if cap(s.prefixBuf) < m {
		s.prefixBuf = make([]bool, m)
	}
	var next bitvec.BitVec
	found := gf2.SuccessorPrefixes(y, s.prefixBuf[:m], func(prefix []bool) bool {
		var ok bool
		next, ok = s.lexMinWithPrefix(prefix)
		return ok
	})
	return next, found
}

// FindMinFunc inserts trial i's smallest hashed solutions under h into an
// empty set of k = Thresh rows; ApproxModelCountMin is generic over it so
// the DNF fast path, the CNF oracle path and the distributed protocol
// share the estimator.
type FindMinFunc func(i int, h *hash.Linear, set *kmv.Set)

// ApproxModelCountMin implements Algorithm 6, the Minimum-based counter:
// each trial draws h from H_Toeplitz(n, 3n), computes the Thresh smallest
// values of h(Sol(φ)), and estimates |Sol(φ)| as Thresh / frac(maxS) — the
// k-minimum-values estimator, where frac treats the 3n-bit string as a
// binary fraction in [0, 1). If fewer than Thresh values exist, the image
// is exhausted and its size is the (then exact, since h is injective on
// Sol(φ) w.h.p. at range 3n) estimate.
//
// Trials run across Options.Parallelism workers, so findMin must be safe
// for concurrent calls with different trial indices.
func ApproxModelCountMin(n int, findMin FindMinFunc, opts Options) Result {
	p := opts.Resolve(defaultSeed)
	thresh, t := p.Thresh, p.Iterations
	fam := hash.NewToeplitz(n, 3*n)
	res := Result{Iterations: t, PerIteration: make([]float64, t)}
	hs := make([]*hash.Linear, t)
	next := p.RNG.Uint64
	for i := range hs {
		hs[i] = fam.Draw(next)
	}
	par.Run(t, p.Parallelism, func(i int) {
		set := kmv.New(3*n, thresh)
		findMin(i, hs[i], set)
		res.PerIteration[i] = set.Estimate()
	})
	res.Estimate = stats.Median(res.PerIteration)
	return res
}

// ApproxModelCountMinDNF runs Algorithm 6 with the polynomial-time FindMin,
// i.e. the FPRAS for #DNF of Theorem 3.
func ApproxModelCountMinDNF(d *formula.DNF, opts Options) Result {
	return ApproxModelCountMin(d.N, func(_ int, h *hash.Linear, set *kmv.Set) {
		FindMinDNF(d, h, set)
	}, opts)
}

// ApproxModelCountMinOracle runs Algorithm 6 against an NP-oracle backend
// (Theorem 3's CNF case: O(p·n·log(1/δ)/ε²) oracle calls), metering
// queries. Every trial runs on its own fork of src.
func ApproxModelCountMinOracle(src oracle.Source, opts Options) Result {
	srcs := trialForks(opts.Resolve(defaultSeed).Iterations, src.Fork)
	res := ApproxModelCountMin(src.NVars(), func(i int, h *hash.Linear, set *kmv.Set) {
		FindMinOracle(srcs[i], h, set)
		release(srcs[i])
	}, opts)
	res.OracleQueries = queries(srcs)
	return res
}
