package streaming

import (
	"errors"
	"slices"
)

// ErrIncompatibleSketch is returned by Merge when the two sketches cannot
// be combined: different types, dimensions, copy counts — or different
// hash draws, which would make the merged state meaningless (the sketches
// would be answering about different random projections of the stream).
var ErrIncompatibleSketch = errors.New("streaming: sketches are not mergeable (mismatched type, shape, or hash draws)")

// Sketch is the common face of the F0 sketches (Algorithm 1's
// architecture): feed elements with ProcessBatch, read the answer with
// Estimate, and combine sketches in memory. For two sketches built from
// the same hash draws (same-seed construction or Clone), Merge folds
// other's state into the receiver so that the result is bit-identical to
// one sketch having ingested both element streams interleaved in any
// order: every sketch here is an idempotent, order-insensitive function
// of the element *set*, so merged(A) ∪ merged(B) determines the state
// regardless of how the elements were partitioned. Merge never mutates
// other.
//
// Clone returns a deep copy sharing the (immutable) hash functions, which
// is exactly the shared-draw precondition Merge requires; ingestion into
// the clone never disturbs the original.
//
// The unexported methods keep the interface to this package's three
// sketches: replayCap bounds the elements a Concurrent replica logs to
// replay into the front's kept target instead of being merged (0: always
// merge), and appendBinary writes the framed snapshot.
type Sketch interface {
	// ProcessBatch absorbs a chunk of stream elements, each an integer
	// below 2^n in the sketch's n-bit universe. A chunk leaves the sketch
	// in exactly the state one-element chunks in order would; chunks
	// amortise the worker-pool dispatch over many elements.
	ProcessBatch(xs []uint64)
	// Estimate returns the current F0 approximation.
	Estimate() float64
	// SketchWords returns the current sketch size in 64-bit words,
	// excluding the stored hash functions (reported for the space
	// experiments).
	SketchWords() int
	Clone() Sketch
	Merge(other Sketch) error
	replayCap() int
	appendBinary(dst []byte) []byte
}

// replayCap is thresh for Bucketing and Minimum: a replay hashes each
// element once per copy, a merge touches up to thresh cells per copy, so
// replaying never costs more than merging. Estimation merges by a
// pointwise max, cheaper than replaying one element through every draw.
func (b *Bucketing) replayCap() int  { return b.thresh }
func (m *Minimum) replayCap() int    { return m.sk.Thresh() }
func (e *Estimation) replayCap() int { return 0 }

// Static interface-compliance checks for every sketch in the package.
var (
	_ Sketch = (*Bucketing)(nil)
	_ Sketch = (*Minimum)(nil)
	_ Sketch = (*Estimation)(nil)
)

// Clone returns a deep copy sharing hash draws, with its own slabs: each
// slab is copied whole, table included, so slots and probe runs carry
// over unchanged.
func (b *Bucketing) Clone() Sketch {
	out := newBucketing(b.n, b.thresh, len(b.copies), b.eng)
	copy(out.hv, b.hv)
	copy(out.keys, b.keys)
	copy(out.occ, b.occ)
	copy(out.free, b.free)
	copy(out.table, b.table)
	for i, c := range b.copies {
		nc := out.copies[i]
		nc.h = c.h // immutable: sharing it is the mergeability precondition
		nc.level = c.level
		nc.free = nc.free[:len(c.free)]
	}
	return out
}

// Merge folds other's cells into b (set union per copy, re-filtered at
// the maximum of the two levels, overflowing as usual). The result is
// bit-identical to b having also ingested other's elements.
func (b *Bucketing) Merge(other Sketch) error {
	o, ok := other.(*Bucketing)
	if !ok || o.thresh != b.thresh || o.n != b.n || len(o.copies) != len(b.copies) {
		return ErrIncompatibleSketch
	}
	for i := range b.copies {
		if !b.copies[i].h.Equal(o.copies[i].h) {
			return ErrIncompatibleSketch
		}
	}
	for i := range b.copies {
		b.copies[i].merge(o.copies[i], b.thresh)
	}
	return nil
}

func (c *bucketCopy) merge(o *bucketCopy, thresh int) {
	if o.level > c.level {
		c.setLevel(o.level)
	}
	// Level test before the membership lookup, as in absorb: c's own
	// slots all pass c's level, so a failing value cannot be a duplicate.
	// Inserts raise c's level, so each value meets the current one.
	for s, on := range o.occ {
		if on && c.admits(o.hv[s]) {
			c.add(o.keys[s], o.hv[s], thresh)
		}
	}
}

// Clone returns a deep copy sharing hash draws, with its own slab.
func (m *Minimum) Clone() Sketch { return newMinimum(m.sk.Clone(), m.eng) }

// Merge folds other's minima into m: per copy, the sorted streams of
// distinct hash values merge and the smallest Thresh survive — exactly
// the state one sketch ingesting both streams would hold.
func (m *Minimum) Merge(other Sketch) error {
	if o, ok := other.(*Minimum); !ok || !m.sk.Merge(o.sk) {
		return ErrIncompatibleSketch
	}
	return nil
}

// Clone returns a deep copy sharing the hash grid, with its own
// trailing-zero slab and FM tracker.
func (e *Estimation) Clone() Sketch {
	out := *e
	out.s = slices.Clone(e.s)
	out.fm = e.fm.clone()
	return &out
}

// Merge takes the pointwise maximum of the trailing-zero grids (the max
// over a union of streams is the max of the per-stream maxima) and merges
// the parallel FM trackers. The grids must hold the same coefficients:
// one slab (clones share it), else equal words.
func (e *Estimation) Merge(other Sketch) error {
	o, ok := other.(*Estimation)
	if !ok || o.thresh != e.thresh || o.n != e.n || o.wise != e.wise || len(o.s) != len(e.s) {
		return ErrIncompatibleSketch
	}
	if &o.coeffs[0] != &e.coeffs[0] && !slices.Equal(o.coeffs, e.coeffs) {
		return ErrIncompatibleSketch
	}
	if !e.fm.merge(o.fm) {
		return ErrIncompatibleSketch
	}
	for i, v := range o.s {
		if v > e.s[i] {
			e.s[i] = v
		}
	}
	return nil
}

// clone returns a deep copy sharing hash draws.
func (f *fmTracker) clone() *fmTracker {
	return &fmTracker{hs: f.hs, u64: f.u64, max: slices.Clone(f.max)}
}

// merge takes the pointwise maximum of the per-copy counters, reporting
// false, with f untouched, when o's draws differ from f's. Both trackers
// have one copy per grid row, and Estimation.Merge has matched the rows.
func (f *fmTracker) merge(o *fmTracker) bool {
	for i := range f.hs {
		if !f.hs[i].Equal(o.hs[i]) {
			return false
		}
	}
	for i, v := range o.max {
		if v > f.max[i] {
			f.max[i] = v
		}
	}
	return true
}
