// Package setstream implements Section 5 of the paper: F0 estimation over
// structured set streams, where each stream item is a succinct description
// of a subset of {0,1}^n — a DNF formula (Theorem 5), a d-dimensional range
// (Lemma 4 + Theorem 6), a d-dimensional arithmetic progression
// (Corollary 1), or an affine space Ax = b (Proposition 4 + Theorem 7).
//
// All estimators are instances of one pattern: keep the Thresh
// lexicographically smallest values of h(∪ᵢ Sol(φᵢ)) for h drawn from
// H_Toeplitz(n, 3n), updating per item with the appropriate FindMin — the
// Minimum-based counter run "inside out". Every kind is one kmv.Sketch
// plus its shape; the kinds share one merge and one codec.
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
// heterogeneous — DNF walks and image searches pruned at each copy's
// own maximum — so copies are not block-sharded), but each copy's minima and hash belong to exactly one task, so
// no copy state is shared between workers. Randomness is pre-drawn
// serially at construction, keyed by copy index — fixed-seed estimates
// are bit-identical at every Parallelism value and under any batching.
package setstream

import (
	"fmt"
	"math"
	"slices"

	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/par"
	"mcf0/internal/params"
	"mcf0/internal/wire"
)

// Options parameterises the set-stream estimators; the zero value selects
// the paper's constants (see params.Resolve).
type Options = params.Options

// stream is the state every set-stream kind shares: the Minimum sketch
// (a Toeplitz hash n → 3n and a k-min set per copy), the per-dimension
// widths of the range and progression kinds (nil for the DNF and affine
// kinds, whose shape is the universe width alone), the kind byte that
// frames its snapshot, and the worker count its copies fan out across.
type stream struct {
	kind    byte
	dims    []int
	sk      *kmv.Sketch
	workers int
}

func newStream(kind byte, n int, dims []int, opts Options) stream {
	o := opts.Resolve(0x5e75747265616d) // the package's nil-RNG seed
	sk := kmv.NewSketch(n, o.Thresh, o.Iterations, o.RNG.Uint64)
	return stream{kind: kind, dims: dims, sk: sk, workers: o.Parallelism}
}

// dimsStream builds a range or progression stream's state over the total
// of bitsPerDim.
func dimsStream(kind byte, bitsPerDim []int, opts Options) stream {
	total := 0
	for _, b := range bitsPerDim {
		total += b
	}
	return newStream(kind, total, slices.Clone(bitsPerDim), opts)
}

// CheckShape reports an error unless a stream over the given
// per-dimension widths (one width for the DNF and affine kinds) has a
// shape its snapshot decoder accepts: 1 to maxStreamDims dimensions,
// each and their total 1 to maxStreamBits wide, and the sketch at opts'
// resolved Thresh and Iterations inside kmv's decode bounds. It
// allocates nothing, so callers check before building.
func CheckShape(dims []int, opts Options) error {
	if len(dims) < 1 || len(dims) > maxStreamDims {
		return fmt.Errorf("setstream: %d dimensions out of [1,%d]", len(dims), maxStreamDims)
	}
	total := 0
	for _, b := range dims {
		if b < 1 || b > maxStreamBits {
			return fmt.Errorf("setstream: width %d out of [1,%d]", b, maxStreamBits)
		}
		total += b
	}
	if total > maxStreamBits {
		return fmt.Errorf("setstream: total width %d exceeds %d", total, maxStreamBits)
	}
	if o := opts.Resolve(0); !kmv.Fits(total, o.Thresh, o.Iterations) {
		return fmt.Errorf("setstream: %d copies of %d %d-bit minima exceed the decode bound",
			o.Iterations, o.Thresh, 3*total)
	}
	return nil
}

// Estimate returns the (ε, δ)-approximation of the union size: the median
// over copies of the k-minimum-values estimate.
func (s *stream) Estimate() float64 { return s.sk.Estimate() }

// N returns the universe width (variable count) the stream was built
// over; for the range and progression kinds, the total of Dims.
func (s *stream) N() int { return s.sk.N() }

// Dims returns the per-dimension widths of a range or progression stream
// (nil for the other kinds). The slice is the stream's own: read it, do
// not modify it.
func (s *stream) Dims() []int { return s.dims }

// processDNFBatch runs FindMinDNF for every item over every copy with a
// single pool dispatch: each copy walks the items in arrival order, so
// the sketch ends in exactly the state one call per item would produce.
func (s *stream) processDNFBatch(fs []*formula.DNF) {
	if len(fs) == 0 {
		return
	}
	// The dynamic pool: per-copy FindMin cost is heavy and varies with the
	// copy's hash, so a static block partition would strand slow copies.
	par.Run(s.sk.Copies(), s.workers, func(i int) {
		h, set := s.sk.Copy(i)
		for _, f := range fs {
			counting.FindMinDNF(f, h, set)
		}
	})
}

// checkDims panics unless an item's per-dimension widths match the
// stream's.
func (s *stream) checkDims(widths func(i int) int, d int) {
	if d != len(s.dims) {
		panic("setstream: dimension count mismatch")
	}
	for i, b := range s.dims {
		if widths(i) != b {
			panic("setstream: dimension width mismatch")
		}
	}
}

// DNFStream estimates F0 of a stream of DNF sets (Theorem 5): per item,
// FindMinDNF inserts the arriving formula's smallest hashed solutions
// straight into each copy's set, in time O(n⁴·k·Thresh), pruned by the
// set's current maximum.
type DNFStream struct{ stream }

// NewDNFStream builds the estimator over n-variable DNF items.
func NewDNFStream(n int, opts Options) *DNFStream {
	return &DNFStream{newStream(wire.KindDNFStream, n, nil, opts)}
}

// ProcessDNF absorbs one DNF set; the per-copy FindMin computations run
// across the sketch's worker pool (FindMinDNF only reads f and the hash).
func (d *DNFStream) ProcessDNF(f *formula.DNF) {
	d.ProcessDNFBatch([]*formula.DNF{f})
}

// ProcessDNFBatch absorbs a chunk of DNF sets with a single pool dispatch:
// each copy walks the items in arrival order, so the sketch ends in
// exactly the state len(fs) ProcessDNF calls would produce.
func (d *DNFStream) ProcessDNFBatch(fs []*formula.DNF) {
	for _, f := range fs {
		if f.N != d.N() {
			panic("setstream: DNF variable count mismatch")
		}
	}
	d.processDNFBatch(fs)
}

// RangeStream estimates F0 over d-dimensional range items (Theorem 6) by
// converting each range to its Lemma 4 DNF (≤ (2n)^d terms) and running
// the DNF stream's FindMin.
type RangeStream struct{ stream }

// NewRangeStream builds the estimator; bitsPerDim fixes each dimension's
// width (total variables Σ bitsPerDim).
func NewRangeStream(bitsPerDim []int, opts Options) *RangeStream {
	return &RangeStream{dimsStream(wire.KindRangeStream, bitsPerDim, opts)}
}

// ProcessRange absorbs one d-dimensional range.
func (r *RangeStream) ProcessRange(mr formula.MultiRange) error {
	return r.ProcessRangeBatch([]formula.MultiRange{mr})
}

// ProcessRangeBatch absorbs a chunk of d-dimensional ranges with a single
// pool dispatch. The conversion to Lemma 4 DNFs happens up front: on any
// invalid range the whole batch is rejected and the sketch is unchanged.
func (r *RangeStream) ProcessRangeBatch(mrs []formula.MultiRange) error {
	ds := make([]*formula.DNF, len(mrs))
	for k, mr := range mrs {
		r.checkDims(func(i int) int { return mr.Dims[i].Bits }, len(mr.Dims))
		d, err := formula.MultiRangeDNF(mr)
		if err != nil {
			return err
		}
		ds[k] = d
	}
	r.processDNFBatch(ds)
	return nil
}

// ProgressionStream estimates F0 over d-dimensional arithmetic-progression
// items with power-of-two steps (Corollary 1).
type ProgressionStream struct{ stream }

// NewProgressionStream builds the estimator with the given per-dimension
// widths.
func NewProgressionStream(bitsPerDim []int, opts Options) *ProgressionStream {
	return &ProgressionStream{dimsStream(wire.KindProgressionStream, bitsPerDim, opts)}
}

// ProcessProgression absorbs one d-dimensional progression (one Progression
// per dimension).
func (p *ProgressionStream) ProcessProgression(ps []formula.Progression) error {
	p.checkDims(func(i int) int { return ps[i].Bits }, len(ps))
	d, err := formula.MultiProgressionDNF(ps)
	if err != nil {
		return err
	}
	p.processDNFBatch([]*formula.DNF{d})
	return nil
}

// AffineStream estimates F0 over affine-space items ⟨A, b⟩ representing
// {x : Ax = b} (Theorem 7). Per item, AffineFindMin (Proposition 4) inserts
// the smallest values of h over the solution space into each copy's set by
// prefix search through the stacked system [D | A].
type AffineStream struct{ stream }

// NewAffineStream builds the estimator over n-bit universes.
func NewAffineStream(n int, opts Options) *AffineStream {
	return &AffineStream{newStream(wire.KindAffineStream, n, nil, opts)}
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
	counting.FindMinImage(gf2.NewImageSearcher(h.A(), h.B, cons), bitvec.New(h.OutBits()), set)
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
		if a.Cols() != s.N() {
			panic("setstream: affine item width mismatch")
		}
	}
	if len(as) == 0 {
		return
	}
	par.Run(s.sk.Copies(), s.workers, func(i int) {
		h, set := s.sk.Copy(i)
		for k, a := range as {
			AffineFindMin(a, bs[k], h, set)
		}
	})
}

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
	return rs.Estimate() / math.Pow(2, float64(rs.N()))
}
