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
// Values live in words, k rows of ⌈bits/64⌉ words each, usually carved
// from one slab shared by many sets: the first Len() rows hold the values
// in ascending order, so insertion shifts the rows above the new value up
// by one and never allocates. Rows are read as bitvec.View vectors.
type Set struct {
	bits, n int      // value width, values held
	words   []uint64 // k rows; rows 0..n−1 ascending and distinct
}

// stride returns the words per row.
func (s *Set) stride() int { return (s.bits + 63) / 64 }

// k returns the capacity.
func (s *Set) k() int { return len(s.words) / s.stride() }

// row returns row j as a vector aliasing the set's words.
func (s *Set) row(j int) bitvec.BitVec {
	w := s.stride()
	return bitvec.View(s.bits, s.words[j*w:(j+1)*w:(j+1)*w])
}

// New returns an empty set of k fresh bits-wide rows; k must be positive.
func New(bits, k int) *Set { return &Carve(bits, k, 1)[0] }

// Carve returns t empty sets of k bits-wide rows each, with all rows in
// one slab; k must be positive.
func Carve(bits, k, t int) []Set {
	if k <= 0 {
		panic("kmv: k must be positive")
	}
	w := (bits + 63) / 64
	words := make([]uint64, t*k*w)
	sets := make([]Set, t)
	for i := range sets {
		lo, hi := i*k*w, (i+1)*k*w
		sets[i] = Set{bits: bits, words: words[lo:hi:hi]}
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
func (s *Set) Bits() int { return s.bits }

// Len returns the number of values held.
func (s *Set) Len() int { return s.n }

// Full reports whether the set holds k values.
func (s *Set) Full() bool { return s.n == s.k() }

// Max returns the largest value held, aliasing the set's storage; the set
// must not be empty.
func (s *Set) Max() bitvec.BitVec { return s.row(s.n - 1) }

// Values returns the values in ascending order. The vectors alias the
// set's own storage: read them, do not keep them across a mutation.
func (s *Set) Values() []bitvec.BitVec {
	vs := make([]bitvec.BitVec, s.n)
	for j := range vs {
		vs[j] = s.row(j)
	}
	return vs
}

// Reset empties the set, keeping its rows.
func (s *Set) Reset() { s.n = 0 }

// Candidate reports whether y could enter: the set has room, or y is
// below its maximum. An ascending walk stops at the first value that is
// not a candidate; nothing after it can enter either.
func (s *Set) Candidate(y bitvec.BitVec) bool {
	return !s.Full() || y.Less(s.Max())
}

// Insert adds y unless it is already present or, on a full set, not below
// the maximum — a value ≥ max is rejected with one comparison before the
// search. An admitted y is copied into its rank's row (the rows above
// shift up, evicting the maximum when full), so callers may pass a reused
// scratch vector. It reports whether the set changed.
func (s *Set) Insert(y bitvec.BitVec) bool {
	if y.Len() != s.bits {
		panic("kmv: value width mismatch")
	}
	n := s.n
	if n == s.k() && !y.Less(s.row(n-1)) {
		return false
	}
	idx := sort.Search(n, func(i int) bool { return !s.row(i).Less(y) })
	if idx < n && s.row(idx).Equal(y) {
		return false
	}
	if n < s.k() {
		s.n++
	} else {
		n-- // the maximum's row is overwritten by the shift
	}
	w := s.stride()
	copy(s.words[(idx+1)*w:(n+1)*w], s.words[idx*w:n*w])
	copy(s.words[idx*w:(idx+1)*w], y.Words())
	return true
}

// CopyFrom replaces s's values with o's, in rank order; s's capacity must
// be at least o.Len().
func (s *Set) CopyFrom(o *Set) {
	s.n = o.n
	copy(s.words, o.words[:o.n*o.stride()])
}

// Merge folds o's values into s: a two-pointer sorted merge with dedup of
// both value lists into tmp (at least k rows' words, owned by the
// caller), truncated at k, then copied back so s's values are again its
// first rows in rank order. The result is exactly the set one Insert per
// value of both sets would build. o is not mutated.
func (s *Set) Merge(o *Set, tmp []uint64) {
	w := s.stride()
	k, i, j := 0, 0, 0
	for k < s.k() && (i < s.n || j < o.n) {
		var src bitvec.BitVec
		switch {
		case i >= s.n:
			src, j = o.row(j), j+1
		case j >= o.n:
			src, i = s.row(i), i+1
		case s.row(i).Less(o.row(j)):
			src, i = s.row(i), i+1
		case o.row(j).Less(s.row(i)):
			src, j = o.row(j), j+1
		default: // equal in both: keep one
			src, i, j = s.row(i), i+1, j+1
		}
		copy(tmp[k*w:(k+1)*w], src.Words())
		k++
	}
	s.n = k
	copy(s.words, tmp[:k*w])
}

// Estimate is the k-minimum-values estimator: k / frac(max) for a full
// set, where frac reads the value as a binary fraction in [0, 1). A set
// that is not full has seen every distinct value, so its size is exact;
// the same count stands in when frac(max) is 0.
func (s *Set) Estimate() float64 {
	if !s.Full() {
		return float64(s.n)
	}
	f := s.Max().Fraction()
	if f == 0 {
		return float64(s.n)
	}
	return float64(s.k()) / f
}

// Words returns the footprint of the values held, in 64-bit words.
func (s *Set) Words() int { return s.n * s.stride() }

// AppendBinary appends the wire body: the count, then the values in rank
// order.
func (s *Set) AppendBinary(dst []byte) []byte {
	dst = wire.AppendInt(dst, s.n)
	for j := 0; j < s.n; j++ {
		dst = wire.AppendBitVec(dst, s.row(j))
	}
	return dst
}

// Decode reads an AppendBinary body into the empty set s straight into its
// rows, rejecting a count above k and values that are not strictly
// ascending. Failures land in r; it reports success.
func (s *Set) Decode(r *wire.Reader) bool {
	cnt := r.Int(s.k())
	for j := 0; j < cnt && r.Err() == nil; j++ {
		r.BitVecInto(s.row(j))
		if r.Err() == nil && j > 0 && !s.row(j-1).Less(s.row(j)) {
			r.Corrupt("k-min values are not strictly ascending")
		}
		s.n++
	}
	return r.Err() == nil
}
