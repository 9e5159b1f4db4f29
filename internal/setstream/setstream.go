// Package setstream implements Section 5 of the paper: F0 estimation over
// structured set streams, where each stream item is a succinct description
// of a subset of {0,1}^n — a DNF formula (Theorem 5), a d-dimensional range
// (Lemma 4 + Theorem 6), a d-dimensional arithmetic progression
// (Corollary 1), an affine space Ax = b (Proposition 4 + Theorem 7), or a
// CNF formula (the Observation 2 discussion, answered with the CNF oracle).
//
// All estimators are instances of one pattern: keep the Thresh
// lexicographically smallest values of h(∪ᵢ Sol(φᵢ)) for h drawn from
// H_Toeplitz(n, 3n), updating per item with the appropriate FindMin — the
// Minimum-based counter run "inside out".
//
// The t sketch copies are independent (own hash, own minima) and their
// per-item FindMin computations fan out across a worker pool
// (Options.Parallelism). Every stream also offers a batch entry point
// (ProcessDNFBatch, ProcessRangeBatch, …) that walks a whole chunk of
// items per copy with a single pool dispatch, leaving the sketch in
// exactly the state element-at-a-time processing would. Hashes are drawn
// serially at construction keyed by copy index, so fixed-seed estimates
// are bit-identical at every parallelism level.
//
// The package also implements the weighted-#DNF → d-dimensional-range
// reduction of Section 5.
//
// # Concurrency contract
//
// Streams are single-writer: one goroutine drives ProcessDNF/ProcessRange/
// …/Estimate; the batch entry points reject or absorb a whole chunk
// atomically (validation happens before any copy mutates). Inside a call
// the per-copy FindMin work runs on the dynamic pool (per-copy cost is
// heterogeneous — SAT calls, image searches — so copies are not block-
// sharded), but each copy's minima and hash belong to exactly one task, so
// no copy state is shared between workers. CNF items build their per-
// (item, copy) oracles lazily inside the worker, bounding live solvers by
// the pool width; their query meters are summed in deterministic
// (item, copy) order after the join. Randomness is pre-drawn serially at
// construction, keyed by copy index — fixed-seed estimates are
// bit-identical at every Parallelism value and under any batching.
package setstream

import (
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/oracle"
	"mcf0/internal/par"
	"mcf0/internal/params"
	"mcf0/internal/stats"
)

// Options parameterises the set-stream estimators; the zero value selects
// the paper's constants (see params.Resolve).
type Options = params.Options

// runCopies executes fn(i) for each sketch copy on up to workers
// goroutines; fn must touch only copy i's state. The dynamic pool
// (par.Run) fits here: per-copy FindMin cost is heavy (≫ dispatch cost,
// so the pool engages even for single items, unlike the streaming
// sketches) and varies with the copy's hash — for CNF items by orders of
// magnitude (SAT) — so dynamic hand-out balances load where a static
// block partition would strand slow copies. No per-shard scratch is used,
// and results are keyed by copy index, so determinism needs nothing more.
func runCopies(count, workers int, fn func(i int)) { par.Run(count, workers, fn) }

// minSketch is the shared Minimum-style sketch: per copy, a Toeplitz hash
// n → 3n and a k-min set of the Thresh smallest distinct hash values seen
// so far, its rows carved from one slab. The copies are updated
// independently, so per-item work fans out across Options.Parallelism
// workers.
type minSketch struct {
	thresh  int
	workers int
	copies  []*sketchCopy
	// mergeTmp is merge's rank-order staging area (thresh slab rows),
	// allocated on first merge and reused across copies.
	mergeTmp []bitvec.BitVec
}

type sketchCopy struct {
	h   *hash.Linear
	set kmv.Set
}

func newMinSketch(n int, opts Options) *minSketch {
	o := opts.Resolve(0x5e75747265616d) // the package's nil-RNG seed
	fam := hash.NewToeplitz(n, 3*n)
	s := &minSketch{thresh: o.Thresh, workers: o.Parallelism}
	sets := kmv.Carve(3*n, s.thresh, o.Iterations)
	for i := 0; i < o.Iterations; i++ {
		s.copies = append(s.copies, &sketchCopy{h: fam.Draw(o.RNG.Uint64).(*hash.Linear), set: sets[i]})
	}
	return s
}

// Estimate is the median over copies of the k-minimum-values estimate.
func (s *minSketch) Estimate() float64 {
	ests := make([]float64, len(s.copies))
	for i, c := range s.copies {
		ests[i] = c.set.Estimate()
	}
	return stats.Median(ests)
}

// DNFStream estimates F0 of a stream of DNF sets (Theorem 5): per item,
// FindMinDNF inserts the arriving formula's smallest hashed solutions
// straight into each copy's set, in time O(n⁴·k·Thresh), pruned by the
// set's current maximum.
type DNFStream struct {
	n   int
	s   *minSketch
	one [1]*formula.DNF
}

// NewDNFStream builds the estimator over n-variable DNF items.
func NewDNFStream(n int, opts Options) *DNFStream {
	return &DNFStream{n: n, s: newMinSketch(n, opts)}
}

// ProcessDNF absorbs one DNF set; the per-copy FindMin computations run
// across the sketch's worker pool (FindMinDNF only reads f and the hash).
func (d *DNFStream) ProcessDNF(f *formula.DNF) {
	d.one[0] = f
	d.ProcessDNFBatch(d.one[:])
}

// ProcessDNFBatch absorbs a chunk of DNF sets with a single pool dispatch:
// each copy walks the items in arrival order, so the sketch ends in
// exactly the state len(fs) ProcessDNF calls would produce.
func (d *DNFStream) ProcessDNFBatch(fs []*formula.DNF) {
	for _, f := range fs {
		if f.N != d.n {
			panic("setstream: DNF variable count mismatch")
		}
	}
	if len(fs) == 0 {
		return
	}
	runCopies(len(d.s.copies), d.s.workers, func(i int) {
		c := d.s.copies[i]
		for _, f := range fs {
			counting.FindMinDNF(f, c.h, &c.set)
		}
	})
}

// ProcessElementBatch absorbs a chunk of universe elements as singleton
// DNF sets with a single pool dispatch.
func (d *DNFStream) ProcessElementBatch(xs []bitvec.BitVec) {
	fs := make([]*formula.DNF, len(xs))
	for i, x := range xs {
		fs[i] = formula.SingletonDNF(x)
	}
	d.ProcessDNFBatch(fs)
}

// Estimate returns the (ε, δ)-approximation of |∪ᵢ Sol(φᵢ)|.
func (d *DNFStream) Estimate() float64 { return d.s.Estimate() }

// RangeStream estimates F0 over d-dimensional range items (Theorem 6) by
// converting each range to its Lemma 4 DNF (≤ (2n)^d terms) and feeding a
// DNFStream.
type RangeStream struct {
	inner *DNFStream
	bits  []int
}

// NewRangeStream builds the estimator; bitsPerDim fixes each dimension's
// width (total variables Σ bitsPerDim).
func NewRangeStream(bitsPerDim []int, opts Options) *RangeStream {
	total := 0
	for _, b := range bitsPerDim {
		total += b
	}
	return &RangeStream{inner: NewDNFStream(total, opts), bits: append([]int(nil), bitsPerDim...)}
}

// ProcessRange absorbs one d-dimensional range.
func (r *RangeStream) ProcessRange(mr formula.MultiRange) error {
	if len(mr.Dims) != len(r.bits) {
		panic("setstream: dimension count mismatch")
	}
	for i, dim := range mr.Dims {
		if dim.Bits != r.bits[i] {
			panic("setstream: dimension width mismatch")
		}
	}
	d, err := formula.MultiRangeDNF(mr)
	if err != nil {
		return err
	}
	r.inner.ProcessDNF(d)
	return nil
}

// ProcessRangeBatch absorbs a chunk of d-dimensional ranges with a single
// pool dispatch. The conversion to Lemma 4 DNFs happens up front: on any
// invalid range the whole batch is rejected and the sketch is unchanged.
func (r *RangeStream) ProcessRangeBatch(mrs []formula.MultiRange) error {
	ds := make([]*formula.DNF, len(mrs))
	for k, mr := range mrs {
		if len(mr.Dims) != len(r.bits) {
			panic("setstream: dimension count mismatch")
		}
		for i, dim := range mr.Dims {
			if dim.Bits != r.bits[i] {
				panic("setstream: dimension width mismatch")
			}
		}
		d, err := formula.MultiRangeDNF(mr)
		if err != nil {
			return err
		}
		ds[k] = d
	}
	r.inner.ProcessDNFBatch(ds)
	return nil
}

// Estimate returns the (ε, δ)-approximation of the union size.
func (r *RangeStream) Estimate() float64 { return r.inner.Estimate() }

// ProgressionStream estimates F0 over d-dimensional arithmetic-progression
// items with power-of-two steps (Corollary 1).
type ProgressionStream struct {
	inner *DNFStream
	bits  []int
}

// NewProgressionStream builds the estimator with the given per-dimension
// widths.
func NewProgressionStream(bitsPerDim []int, opts Options) *ProgressionStream {
	total := 0
	for _, b := range bitsPerDim {
		total += b
	}
	return &ProgressionStream{inner: NewDNFStream(total, opts), bits: append([]int(nil), bitsPerDim...)}
}

// ProcessProgression absorbs one d-dimensional progression (one Progression
// per dimension).
func (p *ProgressionStream) ProcessProgression(ps []formula.Progression) error {
	if len(ps) != len(p.bits) {
		panic("setstream: dimension count mismatch")
	}
	for i, pr := range ps {
		if pr.Bits != p.bits[i] {
			panic("setstream: dimension width mismatch")
		}
	}
	d, err := formula.MultiProgressionDNF(ps)
	if err != nil {
		return err
	}
	p.inner.ProcessDNF(d)
	return nil
}

// Estimate returns the (ε, δ)-approximation of the union size.
func (p *ProgressionStream) Estimate() float64 { return p.inner.Estimate() }

// AffineStream estimates F0 over affine-space items ⟨A, b⟩ representing
// {x : Ax = b} (Theorem 7). Per item, AffineFindMin (Proposition 4) inserts
// the smallest values of h over the solution space into each copy's set by
// prefix search through the stacked system [D | A].
type AffineStream struct {
	n int
	s *minSketch
}

// NewAffineStream builds the estimator over n-bit universes.
func NewAffineStream(n int, opts Options) *AffineStream {
	return &AffineStream{n: n, s: newMinSketch(n, opts)}
}

// AffineFindMin implements Proposition 4: it inserts the smallest
// elements of h(Sol(⟨A, b⟩)) into set, via Gaussian elimination in
// O(n⁴·t) for a set of capacity t. The walk stops at the first value the
// set cannot take. The searcher takes ownership of the stacked constraint
// system and walks the minima over one rewindable elimination state
// (successor probes rewind to their divergence point instead of cloning
// ⟨A, b⟩'s echelon form per step).
func AffineFindMin(a *gf2.Matrix, b bitvec.BitVec, h *hash.Linear, set *kmv.Set) {
	cons := gf2.NewSystem(a.Cols())
	for i := 0; i < a.Rows(); i++ {
		cons.Add(a.Row(i), b.Get(i))
	}
	counting.FindMinImage(gf2.NewImageSearcher(h.A, h.B, cons), bitvec.New(h.OutBits()), set)
}

// ProcessAffine absorbs one affine set {x : Ax = b}; the per-copy prefix
// searches run across the sketch's worker pool.
func (s *AffineStream) ProcessAffine(a *gf2.Matrix, b bitvec.BitVec) {
	s.ProcessAffineBatch([]*gf2.Matrix{a}, []bitvec.BitVec{b})
}

// ProcessAffineBatch absorbs a chunk of affine sets {x : as[k]·x = bs[k]}
// with a single pool dispatch: each copy runs its prefix searches over the
// items in arrival order.
func (s *AffineStream) ProcessAffineBatch(as []*gf2.Matrix, bs []bitvec.BitVec) {
	if len(as) != len(bs) {
		panic("setstream: affine batch arity mismatch")
	}
	for _, a := range as {
		if a.Cols() != s.n {
			panic("setstream: affine item width mismatch")
		}
	}
	if len(as) == 0 {
		return
	}
	runCopies(len(s.s.copies), s.s.workers, func(i int) {
		c := s.s.copies[i]
		for k, a := range as {
			AffineFindMin(a, bs[k], c.h, &c.set)
		}
	})
}

// Estimate returns the (ε, δ)-approximation of the union size.
func (s *AffineStream) Estimate() float64 { return s.s.Estimate() }

// CNFStream estimates F0 over CNF-formula items using the NP-oracle
// FindMin (the Observation 2 discussion: with a SAT solver standing in for
// the oracle, d-dimensional ranges in CNF form take polynomially many
// oracle calls per item).
type CNFStream struct {
	n int
	s *minSketch
	// Queries accumulates oracle calls across items.
	Queries int64
}

// NewCNFStream builds the estimator over n-variable CNF items.
func NewCNFStream(n int, opts Options) *CNFStream {
	return &CNFStream{n: n, s: newMinSketch(n, opts)}
}

// ProcessCNF absorbs one CNF set; each copy solves against its own SAT
// oracle and the query meters are summed in copy order.
func (c *CNFStream) ProcessCNF(f *formula.CNF) {
	c.ProcessCNFBatch([]*formula.CNF{f})
}

// ProcessCNFBatch absorbs a chunk of CNF sets with a single pool dispatch.
// Every (item, copy) pair gets its own SAT oracle, built inside the worker
// right before use (oracle construction is pure per item, so at most t
// oracles are live at once regardless of batch size); query meters are
// recorded per pair and summed in (item, copy) order, matching repeated
// ProcessCNF calls exactly. FindMinOracle fills a fresh set per pair,
// which is then inserted into the copy's: the oracle walk is not pruned by
// the copy's maximum, so each item's query count depends on that item
// alone.
func (c *CNFStream) ProcessCNFBatch(fs []*formula.CNF) {
	for _, f := range fs {
		if f.N != c.n {
			panic("setstream: CNF variable count mismatch")
		}
	}
	if len(fs) == 0 {
		return
	}
	queries := make([][]int64, len(fs))
	for k := range queries {
		queries[k] = make([]int64, len(c.s.copies))
	}
	runCopies(len(c.s.copies), c.s.workers, func(i int) {
		cp := c.s.copies[i]
		item := kmv.New(cp.set.Bits(), c.s.thresh)
		for k, f := range fs {
			src := oracle.NewCNFSource(f)
			item.Reset()
			counting.FindMinOracle(src, cp.h, item)
			for _, v := range item.Values() {
				cp.set.Insert(v)
			}
			queries[k][i] = src.Queries()
		}
	})
	for k := range fs {
		for _, q := range queries[k] {
			c.Queries += q
		}
	}
}

// Estimate returns the (ε, δ)-approximation of the union size.
func (c *CNFStream) Estimate() float64 { return c.s.Estimate() }

// WeightedDNF pairs a DNF with the dyadic weight function of Section 5:
// ρ(xᵢ) = Num[i] / 2^Bits[i].
type WeightedDNF struct {
	D *formula.DNF
	W exact.WeightFunc
}

// TermBox converts term t to its d-dimensional box under the weighted
// reduction. The paper maps xᵢ → [1, kᵢ] and ¬xᵢ → [kᵢ+1, 2^mᵢ]; we shift
// by one to [0, kᵢ−1] and [kᵢ, 2^mᵢ−1] so every dimension fits in mᵢ bits —
// the measure of each interval, hence the reduction, is unchanged.
func (wd WeightedDNF) TermBox(t formula.Term) (formula.MultiRange, bool) {
	norm, ok := t.Normalize()
	if !ok {
		return formula.MultiRange{}, false
	}
	fixed, val := formula.TermFixed(wd.D.N, norm)
	dims := make([]formula.Range, wd.D.N)
	for i := 0; i < wd.D.N; i++ {
		bits := wd.W.Bits[i]
		maxV := uint64(1)<<uint(bits) - 1
		switch {
		case !fixed[i]:
			dims[i] = formula.Range{Lo: 0, Hi: maxV, Bits: bits}
		case val.Get(i):
			dims[i] = formula.Range{Lo: 0, Hi: wd.W.Num[i] - 1, Bits: bits}
		default:
			dims[i] = formula.Range{Lo: wd.W.Num[i], Hi: maxV, Bits: bits}
		}
	}
	return formula.MultiRange{Dims: dims}, true
}

// WeightedCount estimates W(φ) = Σ_{σ⊨φ} W(σ) by streaming each term's box
// through a RangeStream and dividing the union size by 2^Σmᵢ — the
// reduction from weighted #DNF to F0 over d-dimensional ranges.
func WeightedCount(wd WeightedDNF, opts Options) float64 {
	if !wd.W.Validate(wd.D.N) {
		panic("setstream: invalid weight function")
	}
	rs := NewRangeStream(wd.W.Bits, opts)
	for _, t := range wd.D.Terms {
		box, ok := wd.TermBox(t)
		if !ok {
			continue
		}
		if err := rs.ProcessRange(box); err != nil {
			panic(err) // boxes are valid by construction
		}
	}
	totalBits := 0
	for _, b := range wd.W.Bits {
		totalBits += b
	}
	return rs.Estimate() / math.Pow(2, float64(totalBits))
}
