// Package delphic implements the sampling-based union-size estimator that
// Remark 2 of the paper describes (the APS-Estimator of Meel r⃝
// Vinodchandran r⃝ Chakraborty, also PODS 2021), as a baseline against the
// hashing-based structured-stream estimators of Section 5.
//
// A set S ⊆ {0,1}^n is Delphic when three queries run in O(n) time:
// its size, a uniform random sample, and membership of a given x. Term
// cubes, multidimensional ranges, and affine spaces are all Delphic (their
// elements are in bijection with free coordinates), which is what lets the
// APS-Estimator achieve per-item time poly(n, d, 1/ε) on d-dimensional
// ranges where the Lemma 4 DNF route pays (2n)^d. The package ships the
// range form (MultiRangeSet) the experiments run; its tests add the cube
// and affine forms.
//
// The estimator maintains a uniform p-sample X of the union: on arrival of
// S, elements of S are first evicted from X (they will be re-sampled),
// then each element of S enters X independently with probability p — done
// in O(p·|S|) expected time by geometric skipping, never enumerating S.
// When X overflows its capacity, p halves and X is subsampled. The final
// estimate is |X| / p.
package delphic

import (
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// Set is a Delphic set: size, uniform sampling, and membership in O(n).
type Set interface {
	// Size returns |S| as a float64 (sets can exceed 2^63).
	Size() float64
	// Element returns the i-th element under the set's internal bijection
	// from [0, Size) to elements. i is passed as a uint64; Size must fit.
	Element(i uint64) bitvec.BitVec
	// Contains reports membership.
	Contains(x bitvec.BitVec) bool
}

// MultiRangeSet is the Delphic set of tuples in a d-dimensional range, laid
// out over the formula.MultiRange variable blocks.
type MultiRangeSet struct {
	mr formula.MultiRange
}

// NewMultiRangeSet wraps a validated multirange; ok is false when any
// dimension is empty or malformed.
func NewMultiRangeSet(mr formula.MultiRange) (*MultiRangeSet, bool) {
	for _, r := range mr.Dims {
		if r.Validate() != nil || r.Empty() {
			return nil, false
		}
	}
	return &MultiRangeSet{mr: mr}, true
}

// Size returns ∏ dimension counts.
func (s *MultiRangeSet) Size() float64 {
	size := 1.0
	for _, r := range s.mr.Dims {
		size *= float64(r.Count())
	}
	return size
}

// Element decodes a mixed-radix index into per-dimension offsets.
func (s *MultiRangeSet) Element(i uint64) bitvec.BitVec {
	vals := make([]uint64, len(s.mr.Dims))
	bits := make([]int, len(s.mr.Dims))
	for d, r := range s.mr.Dims {
		count := r.Count()
		vals[d] = r.Lo + i%count
		i /= count
		bits[d] = r.Bits
	}
	return formula.TupleToAssignment(vals, bits)
}

// Contains checks every dimension's interval.
func (s *MultiRangeSet) Contains(x bitvec.BitVec) bool {
	offset := 0
	for _, r := range s.mr.Dims {
		var v uint64
		for i := 0; i < r.Bits; i++ {
			v <<= 1
			if x.Get(offset + i) {
				v |= 1
			}
		}
		if v < r.Lo || v > r.Hi {
			return false
		}
		offset += r.Bits
	}
	return true
}

// Estimator is the APS union-size estimator over Delphic items.
type Estimator struct {
	n      int
	cap    int
	p      float64
	sample map[bitvec.Fingerprint]bitvec.BitVec
	rng    *stats.RNG
	failed bool
}

// NewEstimator builds an estimator over n-bit universes. epsilon and delta
// give the accuracy target; streamLen is (an upper bound on) the number of
// items M, which the algorithm — unlike the hashing route, as Remark 2
// notes — must know in advance.
func NewEstimator(n int, epsilon, delta float64, streamLen int, rng *stats.RNG) *Estimator {
	if epsilon <= 0 {
		epsilon = 0.8
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.2
	}
	if streamLen < 1 {
		streamLen = 1
	}
	capacity := int(math.Ceil(32 * math.Log(6*float64(streamLen)/delta) / (epsilon * epsilon)))
	return &Estimator{
		n:      n,
		cap:    capacity,
		p:      1,
		sample: map[bitvec.Fingerprint]bitvec.BitVec{},
		rng:    rng,
	}
}

// Process absorbs one Delphic item.
func (e *Estimator) Process(s Set) {
	if e.failed {
		return
	}
	// Evict current samples covered by S: they are re-sampled below, which
	// is what keeps X a uniform p-sample of the union.
	for k, x := range e.sample {
		if s.Contains(x) {
			delete(e.sample, k)
		}
	}
	for {
		if e.addPSample(s) {
			return
		}
		// Overflow: halve p and subsample the buffer.
		e.p /= 2
		if e.p < 1e-18 {
			e.failed = true // pathological; avoid infinite loops
			return
		}
		for k := range e.sample {
			if e.rng.Bool() {
				delete(e.sample, k)
			}
		}
	}
}

// addPSample inserts each element of s independently with probability p via
// geometric skipping, returning false when the buffer overflows (caller
// halves p and retries the whole item, which re-draws the Binomial — the
// distribution is identical because the previous attempt's insertions for
// this item were discarded by the eviction/overflow handling).
func (e *Estimator) addPSample(s Set) bool {
	size := s.Size()
	if size <= 0 {
		return true
	}
	// Walk success positions: gaps between retained elements are
	// geometric. Positions index the set's internal bijection; collisions
	// (same index drawn twice) cannot occur because the walk is strictly
	// increasing.
	inserted := []bitvec.Fingerprint{}
	pos := -1.0
	for {
		pos += 1 + e.geometricSkip()
		if pos >= size {
			return true
		}
		x := s.Element(uint64(pos))
		key := x.Fingerprint()
		if _, dup := e.sample[key]; !dup {
			e.sample[key] = x
			inserted = append(inserted, key)
			if len(e.sample) > e.cap {
				// Undo this item's insertions; caller will retry at p/2.
				for _, k := range inserted {
					delete(e.sample, k)
				}
				return false
			}
		}
	}
}

// geometricSkip samples the number of failures before the next success in
// Bernoulli(p) trials.
func (e *Estimator) geometricSkip() float64 {
	if e.p >= 1 {
		return 0
	}
	u := e.rng.Float64()
	for u == 0 {
		u = e.rng.Float64()
	}
	return math.Floor(math.Log(u) / math.Log(1-e.p))
}

// Estimate returns |X|/p.
func (e *Estimator) Estimate() float64 {
	if e.failed {
		return math.NaN()
	}
	return float64(len(e.sample)) / e.p
}
