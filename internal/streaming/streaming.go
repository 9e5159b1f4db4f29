// Package streaming implements the ComputeF0 architecture of Section 3
// (Algorithms 1–4): three sketch-based (ε, δ) estimators for the number of
// distinct elements in a stream over {0,1}^n, n ≤ 64 —
//
//   - Bucketing (Gibbons–Tirthapura): keep the elements whose hash has an
//     all-zero m-bit prefix, doubling the cell count on overflow;
//   - Minimum (Bar-Yossef et al.): keep the Thresh lexicographically
//     smallest hash values;
//   - Estimation (Bar-Yossef et al.): track the maximum trailing-zero
//     count of Thresh independent s-wise hashes, with a Flajolet–Martin
//     rough estimator run in parallel to choose its range parameter.
//
// Every sketch absorbs elements in chunks (ProcessBatch), each element an
// integer below 2^n, and is order-insensitive; a one-element chunk is the
// element-at-a-time reference.
//
// Two word forms carry an element. The integer form x is what callers
// pass and what the polynomial and Flajolet–Martin hashes evaluate
// (hash.Uint64Hash). The packed form is bitvec word 0 of x's n-bit
// vector — bit i is bit n−1−i of x — and is what the Toeplitz kernel
// (hash.Linear.PrefixWords) multiplies and what Bucketing stores as
// keys, next to each key's n-bit hash value packed the same way.
// Bucketing and Minimum pack each chunk once (wordScratch), and each copy
// hashes it in fused hash-and-filter passes (gf2poly.ClmulFilterBatch)
// that return only the elements passing the copy's level test or max
// reject as it stood at the pass's start: one pass per chunk for
// Bucketing, one per piece of about k expected survivors for Minimum
// (kmv.Set.Absorb). The Go loops touch only those survivors and re-test
// each against the current level or max, so the state is exactly that of
// one-element calls.
//
// The t ≈ 35·log₂(1/δ) copies of each sketch are independent — own hash
// function, own mutable state — and run on a sharded worker pool
// (Options.Parallelism) when the work amortises dispatch: ProcessBatch
// fans the copies out one dispatch per chunk, and Estimation fans out
// even on single elements (its per-copy work is Thresh evaluations).
// Hash functions are drawn serially at construction keyed by copy index,
// never by worker, so fixed-seed estimates are bit-identical at every
// parallelism level and ProcessBatch leaves every copy in exactly the
// state one-element calls would.
//
// # Concurrency contract
//
// Sketches are single-writer: ProcessBatch and Estimate must be driven
// by one goroutine at a time (callers batching from many producers
// serialise upstream). Parallelism happens inside a ProcessBatch call,
// where the copies fan out across the shard pool; a copy — and therefore
// its hash function and its mutable cell/minima/counter state — is only
// ever touched by the one worker its shard maps to. Per-shard hash-word
// buffers are indexed by shard and owned by the shard for the duration
// of one dispatch; the packed chunk is written before fan-out and
// read-only inside it. Hash functions themselves are immutable after
// Draw (the Toeplitz carry-less kernel carries no evaluation scratch), so
// sharing one across shards would also be safe — the per-copy ownership
// is what makes the *mutable* sketch state race-free.
package streaming

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"mcf0/internal/gf2poly"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/params"
	"mcf0/internal/stats"
)

// Options parameterises the sketches; the zero value selects the paper's
// constants (see params.Resolve).
type Options = params.Options

// defaultSeed seeds the hash draws of a sketch built with a nil RNG.
const defaultSeed = 0xf0f0f0

func pow2(k int) float64 { return math.Pow(2, float64(k)) }

// checkBits panics unless 1 ≤ n ≤ 64: every sketch carries an element
// as one word.
func checkBits(n int) {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("streaming: universe width %d out of [1,64]", n))
	}
}

// Bucketing is Algorithm 3's Bucketing case: t independent copies of the
// Gibbons–Tirthapura adaptive-sampling bucket.
type Bucketing struct {
	thresh int
	n      int
	copies []*bucketCopy
	eng    engine
	words  wordScratch
	// Cell storage of every copy, one slab per field: copy i owns entries
	// [i·(thresh+1), (i+1)·(thresh+1)) of hv, keys, occ and free, and
	// [i·T, (i+1)·T) of table, T = tableSize(thresh+1).
	hv    []uint64
	keys  []uint64
	occ   []bool
	free  []int32
	table []int32
}

// bucketCopy stores its cell as a slot table over entries carved from
// the sketch's slabs (thresh+1 slots per copy: the overflow loop runs
// after insertion, so occupancy transiently reaches thresh+1). Each slot
// holds a packed hash value in one word (n ≤ 64) and its key. Raising
// the level re-filters with one linear walk over the slots.
//
// Membership goes through table, an open-addressed index with linear
// probing: each entry holds slot+1, or 0 for empty. Its length is a power
// of two of at least 2·(thresh+1), so it is never more than half full.
// Entries are never deleted one by one; setLevel rebuilds the table from
// the surviving slots.
type bucketCopy struct {
	h     *hash.Linear
	level int
	hv    []uint64 // packed hash values, addressed by slot
	keys  []uint64 // packed elements; keys[slot] is valid while occ[slot]
	occ   []bool
	free  []int32 // stack of unoccupied slots
	table []int32
}

// size returns the number of occupied slots: the free stack always holds
// exactly the others.
func (c *bucketCopy) size() int { return len(c.hv) - len(c.free) }

// probeSalt keys the cell tables' probe hash. A key is the packed
// element, and a caller who picks the elements could otherwise pile them
// into one probe run. The salt only decides where a key sits in the
// table, never which slot holds it, so it reaches no state, snapshot byte
// or estimate.
var probeSalt = rand.Uint64()

// tableSize returns the cell table length for a copy of the given slot
// count: the least power of two ≥ 2·slots.
func tableSize(slots int) int { return 1 << bits.Len(uint(2*slots-1)) }

// newBucketing returns a Bucketing of t copies with their cell storage
// carved from fresh slabs. Hashes, levels and free stacks are left for
// the caller to set.
func newBucketing(n, thresh, t int, eng engine) *Bucketing {
	slots := thresh + 1
	tsize := tableSize(slots)
	b := &Bucketing{
		thresh: thresh,
		n:      n,
		eng:    eng,
		copies: make([]*bucketCopy, t),
		hv:     make([]uint64, t*slots),
		keys:   make([]uint64, t*slots),
		occ:    make([]bool, t*slots),
		free:   make([]int32, t*slots),
		table:  make([]int32, t*tsize),
	}
	cs := make([]bucketCopy, t)
	for i := range cs {
		lo, hi := i*slots, (i+1)*slots
		cs[i] = bucketCopy{
			hv:    b.hv[lo:hi:hi],
			keys:  b.keys[lo:hi:hi],
			occ:   b.occ[lo:hi:hi],
			free:  b.free[lo:lo:hi],
			table: b.table[i*tsize : (i+1)*tsize : (i+1)*tsize],
		}
		b.copies[i] = &cs[i]
	}
	return b
}

// NewBucketing builds a Bucketing sketch over n-bit elements, drawing
// hashes from H_Toeplitz(n, n).
func NewBucketing(n int, opts Options) *Bucketing {
	checkBits(n)
	o := opts.Resolve(defaultSeed)
	fam := hash.NewToeplitz(n, n)
	b := newBucketing(n, o.Thresh, o.Iterations, newEngine(o.Parallelism, minBatchCheap))
	for _, c := range b.copies {
		c.h = fam.Draw(o.RNG.Uint64).(*hash.Linear)
		c.freeFrom(0)
	}
	return b
}

// freeFrom resets the free stack to slots len(hv)−1 down to first, so
// the lowest of them is taken first.
func (c *bucketCopy) freeFrom(first int) {
	c.free = c.free[:0]
	for s := len(c.hv) - 1; s >= first; s-- {
		c.free = append(c.free, int32(s))
	}
}

// probeHome returns key's first probe position in a table of mask+1
// entries.
func probeHome(key, mask uint64) uint64 { return stats.Mix64(key^probeSalt) & mask }

// find returns key's slot, or −1 together with the empty table position
// where key's probe run ends (add's place for it).
func (c *bucketCopy) find(key uint64) (slot int32, pos uint64) {
	mask := uint64(len(c.table) - 1)
	for pos = probeHome(key, mask); ; pos = (pos + 1) & mask {
		e := c.table[pos]
		if e == 0 {
			return -1, pos
		}
		if c.keys[e-1] == key {
			return e - 1, pos
		}
	}
}

// prefixWords hashes every packed element of xw through h's carry-less
// kernel and keeps those whose mp-bit prefix is lexicographically at most
// mx, writing their prefixes to ws and their indices to idx, and returns
// how many it kept. Constructors draw Toeplitz hashes, which carry a
// kernel at every width up to 64, and the decoder refuses draws without
// one (hasKernel), so a refusal here or in kmv.Set.Absorb is a broken
// invariant.
func prefixWords(h *hash.Linear, mp int, mx uint64, xw, ws []uint64, idx []int) int {
	kept, ok := h.PrefixWords(mp, mx, xw, ws, idx)
	if !ok {
		panic("streaming: hash draw has no carry-less kernel")
	}
	return kept
}

// hasKernel reports whether h's carry-less kernel serves mp-bit
// prefixes: PrefixWords over an empty batch writes nothing and reports
// exactly that.
func hasKernel(h *hash.Linear, mp int) bool {
	_, ok := h.PrefixWords(mp, 0, nil, nil, nil)
	return ok
}

// absorbBatch runs lines 3–11 of Algorithm 3 for one copy over a batch,
// in the order hash → level test → membership. Filtering first is exact:
// every occupied slot passes the current level's test (add admits
// only such values and setLevel evicts the rest), so an element that
// fails it cannot be in the cell and is a no-op either way — and the
// membership lookup runs only for the 2^-level survivors.
//
// One PrefixWords call hashes the batch (xw holds the packed elements)
// and keeps only the words with an all-zero prefix at the level the batch
// starts at: the bound ^lowBits(level) admits exactly those. Inserts
// raise the level mid-batch, never lower it, so that is a superset of the
// elements that pass at their turn; each survivor is re-tested against
// the current level and only those are looked up, keyed by their packed
// element.
func (c *bucketCopy) absorbBatch(xw, ws []uint64, idx []int, thresh int) {
	kept := prefixWords(c.h, c.h.OutBits(), ^lowBits(c.level), xw, ws, idx)
	for j, w := range ws[:kept] {
		if c.admits(w) {
			c.add(xw[idx[j]], w, thresh)
		}
	}
}

// lowBits returns a word with bits 0..level−1 set: a packed hash value
// has an all-zero level-bit prefix exactly when it shares no bit with it.
func lowBits(level int) uint64 { return 1<<uint(level) - 1 }

// admits reports whether the packed hash value w passes the level test:
// an all-zero level-bit prefix at a level of at most n. The level n+1,
// reached only when more than thresh elements hash to zero, admits
// nothing (the word test alone would admit the zero hash), so the copy
// stays empty and estimates 0.
func (c *bucketCopy) admits(w uint64) bool {
	return w&lowBits(c.level) == 0 && c.level <= c.h.OutBits()
}

// add places an already-evaluated packed hash value w into the cell
// unless its key is already there (the storing half of lines 5–11 of
// Algorithm 3): take a free slot, index it where find's probe for the key
// ended, and raise the level until the cell fits again. Shared by
// ingestion (absorbBatch) and Merge; callers have already passed the
// value through admits.
func (c *bucketCopy) add(key, w uint64, thresh int) {
	found, pos := c.find(key)
	if found >= 0 {
		return
	}
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.hv[slot] = w
	c.keys[slot] = key
	c.occ[slot] = true
	c.table[pos] = slot + 1
	for c.size() > thresh {
		c.setLevel(c.level + 1)
	}
}

// setLevel raises the sampling level and evicts the hash values it no
// longer admits (all of them at the terminal level n+1), scanning the
// slots in slab order, then rebuilds the table from the survivors.
func (c *bucketCopy) setLevel(level int) {
	c.level = level
	clear(c.table)
	for s, w := range c.hv {
		if !c.occ[s] {
			continue
		}
		if !c.admits(w) {
			c.occ[s] = false
			c.free = append(c.free, int32(s))
			continue
		}
		_, pos := c.find(c.keys[s])
		c.table[pos] = int32(s) + 1
	}
}

// ProcessBatch absorbs a chunk of elements (lines 3–11 of Algorithm 3),
// fanning the copies across the worker pool with one dispatch for the
// whole chunk.
func (b *Bucketing) ProcessBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	xw := b.words.elems(xs, b.n, b.eng.workers)
	if b.eng.serial(len(xs)) {
		ws, idx := b.words.shard(0, len(xw))
		for _, c := range b.copies {
			c.absorbBatch(xw, ws, idx, b.thresh)
		}
		return
	}
	b.eng.run(len(b.copies), func(i, shard int) {
		ws, idx := b.words.shard(shard, len(xw))
		b.copies[i].absorbBatch(xw, ws, idx, b.thresh)
	})
}

// Estimate returns Median_i(|bucket_i| · 2^level_i).
func (b *Bucketing) Estimate() float64 {
	ests := make([]float64, len(b.copies))
	for i, c := range b.copies {
		ests[i] = float64(c.size()) * pow2(c.level)
	}
	return stats.Median(ests)
}

// SketchWords reports the live bucket contents' footprint, one word per
// cell.
func (b *Bucketing) SketchWords() int {
	total := 0
	for _, c := range b.copies {
		total += c.size()
	}
	return total
}

// Minimum is Algorithm 3's Minimum case: a kmv.Sketch of t copies, each
// retaining the Thresh lexicographically smallest distinct hash values
// under a draw from H_Toeplitz(n, 3n), fed by the word-path absorb.
type Minimum struct {
	sk    *kmv.Sketch
	eng   engine
	words wordScratch
	// absorb is kmv.Set.Absorb's working space, one per pool shard.
	absorb []kmv.Scratch
}

func newMinimum(sk *kmv.Sketch, eng engine) *Minimum {
	return &Minimum{sk: sk, eng: eng, absorb: make([]kmv.Scratch, eng.workers)}
}

// NewMinimum builds a Minimum sketch over n-bit elements.
func NewMinimum(n int, opts Options) *Minimum {
	checkBits(n)
	o := opts.Resolve(defaultSeed)
	sk := kmv.NewSketch(n, o.Thresh, o.Iterations, o.RNG.Uint64)
	return newMinimum(sk, newEngine(o.Parallelism, minBatchCheap))
}

// absorbBatch runs lines 12–18 of Algorithm 3 for copy i over a batch
// (xw holds the packed elements) in kmv.Set.Absorb: PrefixWords hashes
// the batch, piece by piece, to each element's first minPrefixBits(n)
// hash bits and keeps only those not lexicographically greater than the
// max's prefix of a full copy — all of them while the copy fills. That is
// exact: a strictly greater prefix means y > max, which cannot enter. The
// set re-tests each survivor against the current max and evaluates the
// full 3n-bit value only of those that pass, placing it by a lookup on
// its prefix.
func (m *Minimum) absorbBatch(i int, xw, ws []uint64, idx []int, mp int, sc *kmv.Scratch) {
	h, set := m.sk.Copy(i)
	set.Absorb(h, mp, xw, ws, idx, sc)
}

// minPrefixBits is the hash prefix Minimum's word path compares: the
// widest one multiply covers (mp+n−1 ≤ 64, so 65−n bits, capped at the
// full 3n) for n ≤ 32, and 64 bits, over two multiplies, above that.
func minPrefixBits(n int) int {
	if n > 32 {
		return 64
	}
	return min(3*n, 65-n)
}

// ProcessBatch absorbs a chunk of elements (lines 12–18 of Algorithm 3),
// fanning the copies across the worker pool with one dispatch for the
// whole chunk.
func (m *Minimum) ProcessBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	n := m.sk.N()
	xw := m.words.elems(xs, n, m.eng.workers)
	mp := minPrefixBits(n)
	if m.eng.serial(len(xs)) {
		ws, idx := m.words.shard(0, len(xw))
		for i := 0; i < m.sk.Copies(); i++ {
			m.absorbBatch(i, xw, ws, idx, mp, &m.absorb[0])
		}
		return
	}
	m.eng.run(m.sk.Copies(), func(i, shard int) {
		ws, idx := m.words.shard(shard, len(xw))
		m.absorbBatch(i, xw, ws, idx, mp, &m.absorb[shard])
	})
}

// Estimate returns Median_i(Thresh / frac(max S[i])), or the exact distinct
// hash count when a copy holds fewer than Thresh values.
func (m *Minimum) Estimate() float64 { return m.sk.Estimate() }

// SketchWords reports the stored minima footprint.
func (m *Minimum) SketchWords() int { return m.sk.Words() }

// Estimation is Algorithm 3's Estimation case: a t × Thresh grid of s-wise
// independent hashes, tracking each one's maximum trailing-zero count.
// EstimateWithR needs the range parameter r of Lemma 3 (2F0 ≤ 2^r ≤
// 50F0); Estimate and SuggestR derive one from a Flajolet–Martin tracker
// of t copies, "run in parallel" as the paper prescribes: copy i is
// absorbed together with grid row i.
type Estimation struct {
	thresh int
	n      int
	// coeffs is the hash grid, one slab of t·Thresh·s coefficient words
	// over field: cell (i, j) is the polynomial whose s coefficients
	// (coeffs[k] multiplies x^k) sit at [(i·thresh+j)·s, +s). It is
	// immutable after construction, so clones share it.
	coeffs []uint64
	wise   int // s, the coefficients per cell
	field  *gf2poly.Field
	// s is the t × Thresh grid of max trailing-zero counts (−1 before
	// any element, at most n ≤ 64, so a byte each), flattened to one
	// contiguous slab: cell (i, j) lives at s[i*thresh+j], so a row absorb
	// streams linearly and Merge is one pointwise-max sweep.
	s   []int8
	fm  *fmTracker
	eng engine
}

// NewEstimation builds an Estimation sketch over n-bit elements, drawing
// from the s-wise polynomial family with s = 10·log₂(1/ε).
func NewEstimation(n int, opts Options) *Estimation {
	checkBits(n)
	o := opts.Resolve(defaultSeed)
	s := int(10 * math.Log2(1/o.Epsilon))
	if s < 2 {
		s = 2
	}
	cells := o.Iterations * o.Thresh
	e := &Estimation{
		thresh: o.Thresh,
		n:      n,
		wise:   s,
		field:  gf2poly.NewField(n),
		// The tracker draws first, and resolves opts itself: under a nil
		// RNG it draws from its own default-seeded generator, not from
		// o.RNG.
		fm:  newFMTracker(n, o.Iterations, opts.Resolve(defaultSeed).RNG.Uint64),
		eng: newEngine(o.Parallelism, minBatchEstimation),
	}
	// Cells draw in row-major order, s words each.
	e.coeffs = make([]uint64, cells*s)
	hash.NewPoly(n, s).Fill(e.coeffs, o.RNG.Uint64)
	e.s = make([]int8, cells)
	for i := range e.s {
		e.s[i] = -1
	}
	return e
}

// copies returns t, the grid's row count.
func (e *Estimation) copies() int { return len(e.s) / e.thresh }

// ProcessBatch absorbs a chunk of elements (lines 19–21 of Algorithm 3),
// fanning the t grid rows across the worker pool. Each row does Thresh
// hash evaluations per element, so even a single element fans out.
func (e *Estimation) ProcessBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	if e.eng.serial(len(xs)) {
		for i := range e.copies() {
			e.absorbRow(i, xs)
		}
		return
	}
	e.eng.run(e.copies(), func(i, _ int) { e.absorbRow(i, xs) })
}

// row returns grid row i of the flat trailing-zero slab.
func (e *Estimation) row(i int) []int8 { return e.s[i*e.thresh : (i+1)*e.thresh] }

// absorbRow folds a batch into grid row i and tracker copy i: every cell
// is one field evaluation plus a trailing-zeros instruction per element.
func (e *Estimation) absorbRow(i int, xs []uint64) {
	srow, s := e.row(i), e.wise
	polys := e.coeffs[i*e.thresh*s : (i+1)*e.thresh*s]
	for _, x := range xs {
		for j := range srow {
			y := e.field.EvalPoly(polys[j*s:(j+1)*s], x)
			tz := e.n
			if y != 0 {
				tz = bits.TrailingZeros64(y)
			}
			if tz > int(srow[j]) {
				srow[j] = int8(tz)
			}
		}
	}
	e.fm.absorb(i, xs)
}

// EstimateWithR evaluates the Lemma 3 estimator at range parameter r.
func (e *Estimation) EstimateWithR(r int) float64 {
	ests := make([]float64, e.copies())
	for i := range ests {
		hits := 0
		for _, v := range e.row(i) {
			if int(v) >= r {
				hits++
			}
		}
		ests[i] = stats.CouponEstimate(hits, e.thresh, r)
	}
	return stats.Median(ests)
}

// Estimate uses the parallel Flajolet–Martin tracker to choose r
// (r = r_FM + 3 places 2^r inside the Lemma 3 window when FM is within its
// factor-5 band).
func (e *Estimation) Estimate() float64 { return e.EstimateWithR(e.SuggestR()) }

// SuggestR returns the FM-derived range parameter params.RangeParam.
func (e *Estimation) SuggestR() int {
	return params.RangeParam(float64(e.fm.maxTrailingZeros()), e.n)
}

// SketchWords reports the trailing-zero grid footprint.
func (e *Estimation) SketchWords() int { return len(e.s) }

// fmTracker is Estimation's Flajolet–Martin rough estimator: the maximum
// trailing-zero count r of a pairwise-independent hash over the stream
// gives 2^r, a factor-5 approximation of F0 with probability 3/5
// (Alon–Matias–Szegedy). It keeps one counter per copy, draws from
// H_xor(n, n), and reports the median.
type fmTracker struct {
	hs []*hash.Linear
	// u64 evaluates hs on integer-form elements (hash.AsUint64Hash).
	u64 []hash.Uint64Hash
	max []int
}

// newFMTracker draws t copies from H_xor(n, n), in copy order.
func newFMTracker(n, t int, rand func() uint64) *fmTracker {
	fam := hash.NewXor(n, n)
	f := &fmTracker{}
	for i := 0; i < t; i++ {
		f.addCopy(fam.Draw(rand).(*hash.Linear), -1)
	}
	return f
}

// addCopy appends a copy with draw h and counter maxTZ. Every linear draw
// of at most 64 input and output bits has an integer-form evaluator.
func (f *fmTracker) addCopy(h *hash.Linear, maxTZ int) {
	u, _ := hash.AsUint64Hash(h)
	f.hs = append(f.hs, h)
	f.u64 = append(f.u64, u)
	f.max = append(f.max, maxTZ)
}

// absorb folds a batch into copy i's max-trailing-zeros counter: one
// EvalUint64 (a carry-less multiply or single-word row sweep) plus a
// trailing-zeros instruction per element.
func (f *fmTracker) absorb(i int, xs []uint64) {
	u := f.u64[i]
	n := f.hs[i].OutBits()
	best := f.max[i]
	for _, v := range xs {
		tz := n
		if y := u.EvalUint64(v); y != 0 {
			tz = bits.TrailingZeros64(y)
		}
		if tz > best {
			best = tz
		}
	}
	f.max[i] = best
}

// maxTrailingZeros returns the median max-trailing-zero count.
func (f *fmTracker) maxTrailingZeros() int {
	return int(stats.MedianInt(f.max))
}
