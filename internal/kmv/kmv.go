// Package kmv is the k-minimum-values core behind every Minimum-style
// estimator in the module: the streaming Minimum sketch (Algorithm 3),
// FindMin model counting (Algorithm 6 with Proposition 2's FindMin), the
// distributed Minimum protocol (Section 4) and the structured set streams
// (Theorems 5–7). Each keeps the k smallest distinct hash values it has
// seen and reports k / frac(max) — the paper's observation that model
// counting and F0 estimation run one estimator.
//
// A Set does six things: the candidate test, insertion, sorted merge with
// dedup, the per-set estimate, its footprint in words, and its wire body
// (count, then the values in rank order) with the decode-side checks.
//
// Sketch is the Minimum F0 sketch built on it: t (Toeplitz draw, Set)
// copies with the median estimate, Clone, the same-draws merge and the
// codec body. streaming.Minimum and the set streams run one Sketch each;
// FindMin counting and distributed Minimum allocate each trial's Set
// inside their worker pool instead, so they use Set directly.
package kmv

import (
	"sort"

	"mcf0/internal/bitvec"
	"mcf0/internal/wire"
)

// Decode bounds shared by the sketch codecs: far beyond any real
// configuration, tight enough that a corrupt count can never size a
// pathological allocation.
const (
	// MaxSlabWords caps any single slab a decoder allocates (t sets of k
	// rows, or any other rows × width block); legitimate sketches sit
	// around 2^14 words.
	MaxSlabWords = 1 << 24
	// MaxCopies caps a sketch's independent copies, t = 35·log₂(1/δ).
	MaxCopies = 1 << 16
	// MaxThresh caps a copy's threshold, Thresh = 96/ε².
	MaxThresh = 1 << 24
)

// Set holds at most k distinct bit vectors of one width, sorted ascending.
// Values live in k rows supplied by the owner, usually carved from one
// slab shared by many sets: vals is a sorted permutation of the first
// Len() rows (headers move on insert, row data stays put), so insertion
// copies one row and never allocates.
type Set struct {
	vals []bitvec.BitVec // sorted ascending, ≤ len(rows) distinct values
	rows []bitvec.BitVec
}

// Make returns an empty set over rows; k is len(rows), which must be
// positive.
func Make(rows []bitvec.BitVec) Set {
	if len(rows) == 0 {
		panic("kmv: k must be positive")
	}
	return Set{vals: make([]bitvec.BitVec, 0, len(rows)), rows: rows}
}

// New returns an empty set of k fresh bits-wide rows.
func New(bits, k int) *Set {
	s := Make(bitvec.NewSlab(bits, k))
	return &s
}

// Carve returns t empty sets of k bits-wide rows each, with all rows in
// one slab and all value headers in one backing array.
func Carve(bits, k, t int) []Set {
	rows := bitvec.NewSlab(bits, t*k)
	vals := make([]bitvec.BitVec, t*k)
	sets := make([]Set, t)
	for i := range sets {
		sets[i] = Set{vals: vals[i*k : i*k : (i+1)*k], rows: rows[i*k : (i+1)*k]}
	}
	return sets
}

// CheckSlab reports whether a rows × bits slab fits MaxSlabWords, failing
// r otherwise. Decoders call it before allocating anything sized by
// counts read off the wire.
func CheckSlab(r *wire.Reader, rows, bits int) bool {
	if uint64(rows)*uint64((bits+63)/64) > MaxSlabWords {
		r.Corrupt("slab of %d %d-bit rows exceeds decode bound", rows, bits)
		return false
	}
	return true
}

// Bits returns the value width.
func (s *Set) Bits() int { return s.rows[0].Len() }

// Len returns the number of values held.
func (s *Set) Len() int { return len(s.vals) }

// Full reports whether the set holds k values.
func (s *Set) Full() bool { return len(s.vals) == len(s.rows) }

// Max returns the largest value held; the set must not be empty.
func (s *Set) Max() bitvec.BitVec { return s.vals[len(s.vals)-1] }

// Values returns the values in ascending order. The slice and its vectors
// are the set's own storage: read them, do not keep them across a
// mutation.
func (s *Set) Values() []bitvec.BitVec { return s.vals }

// Reset empties the set, keeping its rows.
func (s *Set) Reset() { s.vals = s.vals[:0] }

// Candidate reports whether y could enter: the set has room, or y is
// below its maximum. An ascending walk stops at the first value that is
// not a candidate; nothing after it can enter either.
func (s *Set) Candidate(y bitvec.BitVec) bool {
	return !s.Full() || y.Less(s.Max())
}

// Insert adds y unless it is already present or, on a full set, not below
// the maximum — a value ≥ max is rejected with one comparison before the
// search. An admitted y is copied into a row (evicting the maximum when
// full), so callers may pass a reused scratch vector. It reports whether
// the set changed.
func (s *Set) Insert(y bitvec.BitVec) bool {
	n := len(s.vals)
	if n == len(s.rows) && !y.Less(s.vals[n-1]) {
		return false
	}
	idx := sort.Search(n, func(i int) bool { return !s.vals[i].Less(y) })
	if idx < n && s.vals[idx].Equal(y) {
		return false
	}
	var row bitvec.BitVec
	if n < len(s.rows) {
		// Rows enter vals only in order (and evictions recycle in place),
		// so rows[n] is always the next unused row.
		row = s.rows[n]
		s.vals = append(s.vals, bitvec.BitVec{})
	} else {
		row = s.vals[n-1]
		n--
	}
	copy(s.vals[idx+1:], s.vals[idx:n])
	row.CopyFrom(y)
	s.vals[idx] = row
	return true
}

// CopyFrom replaces s's values with o's, in rank order; s's capacity must
// be at least o.Len().
func (s *Set) CopyFrom(o *Set) {
	s.vals = s.vals[:0]
	for j, v := range o.vals {
		s.rows[j].CopyFrom(v)
		s.vals = append(s.vals, s.rows[j])
	}
}

// Merge folds o's values into s: a two-pointer sorted merge with dedup of
// both value lists into tmp (at least k rows of the same width, owned by
// the caller), truncated at k, then copied back so s's values are again
// its first rows in rank order. The result is exactly the set one Insert
// per value of both sets would build. o is not mutated.
func (s *Set) Merge(o *Set, tmp []bitvec.BitVec) {
	a, b := s.vals, o.vals
	k, i, j := 0, 0, 0
	for k < len(s.rows) && (i < len(a) || j < len(b)) {
		var src bitvec.BitVec
		switch {
		case i >= len(a):
			src, j = b[j], j+1
		case j >= len(b):
			src, i = a[i], i+1
		case a[i].Less(b[j]):
			src, i = a[i], i+1
		case b[j].Less(a[i]):
			src, j = b[j], j+1
		default: // equal in both: keep one
			src, i, j = a[i], i+1, j+1
		}
		tmp[k].CopyFrom(src)
		k++
	}
	s.vals = s.vals[:0]
	for r := 0; r < k; r++ {
		s.rows[r].CopyFrom(tmp[r])
		s.vals = append(s.vals, s.rows[r])
	}
}

// Estimate is the k-minimum-values estimator: k / frac(max) for a full
// set, where frac reads the value as a binary fraction in [0, 1). A set
// that is not full has seen every distinct value, so its size is exact;
// the same count stands in when frac(max) is 0.
func (s *Set) Estimate() float64 {
	if !s.Full() {
		return float64(len(s.vals))
	}
	f := s.Max().Fraction()
	if f == 0 {
		return float64(len(s.vals))
	}
	return float64(len(s.rows)) / f
}

// Words returns the footprint of the values held, in 64-bit words.
func (s *Set) Words() int { return len(s.vals) * len(s.rows[0].Words()) }

// AppendBinary appends the wire body: the count, then the values in rank
// order.
func (s *Set) AppendBinary(dst []byte) []byte {
	dst = wire.AppendInt(dst, len(s.vals))
	for _, v := range s.vals {
		dst = wire.AppendBitVec(dst, v)
	}
	return dst
}

// Decode reads an AppendBinary body into the empty set s straight into its
// rows, rejecting a count above k and values that are not strictly
// ascending. Failures land in r; it reports success.
func (s *Set) Decode(r *wire.Reader) bool {
	cnt := r.Int(len(s.rows))
	for j := 0; j < cnt && r.Err() == nil; j++ {
		r.BitVecInto(s.rows[j])
		if r.Err() == nil && j > 0 && !s.rows[j-1].Less(s.rows[j]) {
			r.Corrupt("k-min values are not strictly ascending")
		}
		s.vals = append(s.vals, s.rows[j])
	}
	return r.Err() == nil
}
