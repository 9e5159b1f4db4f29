// Package kmv is the k-minimum-values core behind every Minimum-style
// estimator in the module: the streaming Minimum sketch (Algorithm 3),
// FindMin model counting (Algorithm 6 with Proposition 2's FindMin), the
// distributed Minimum protocol (Section 4) and the structured set streams
// (Theorems 5–7). Each keeps the k smallest distinct hash values it has
// seen and reports k / frac(max) — the paper's observation that model
// counting and F0 estimation run one estimator.
//
// A Set does seven things: the candidate test, insertion of one value,
// the batch absorb of a hash's values (the kernel's prefix filter, then a
// lookup by prefix for each survivor), sorted merge with dedup, the
// per-set estimate, its footprint in words, and its wire body (count,
// then the values in rank order) with the decode-side checks. Insertion,
// the absorb, the merge and the decode compare rows word by word in
// packed order (bitvec.WordLess); one value and each survivor alike find
// their row by the same prefix lookup.
//
// Sketch is the Minimum F0 sketch built on it: t (Toeplitz draw, Set)
// copies with the median estimate, Clone, the same-draws merge and the
// codec body. streaming.Minimum and the set streams run one Sketch each;
// FindMin counting and distributed Minimum allocate each trial's Set
// inside their worker pool instead, so they use Set directly.
package kmv

import (
	"math/bits"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
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
	bits, n, k int      // value width, values held, capacity
	words      []uint64 // k rows; rows 0..n−1 ascending and distinct
}

// stride returns the words per row.
func (s *Set) stride() int { return (s.bits + 63) / 64 }

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
		sets[i] = Set{bits: bits, k: k, words: words[lo:hi:hi]}
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
func (s *Set) Full() bool { return s.n == s.k }

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
// lookup. An admitted y is copied into its rank's row (the rows above
// shift up, evicting the maximum when full), so callers may pass a reused
// scratch vector. Its rank is looked up by its first min(bits, 64) bits
// (rank). It reports whether the set changed.
func (s *Set) Insert(y bitvec.BitVec) bool {
	if y.Len() != s.bits {
		panic("kmv: value width mismatch")
	}
	if s.Full() && !y.Less(s.Max()) {
		return false
	}
	yw, pmask := y.Words(), prefixMask(min(s.bits, 64))
	return s.insertAt(s.rank(yw[0]&pmask, pmask, yw), yw)
}

// insertAt adds y at rank r, the first row not below it, unless that row
// equals y or, on a full set, y is above every row: the rows from r shift
// up by one, evicting the maximum when full. It reports whether the set
// changed.
func (s *Set) insertAt(r int, y []uint64) bool {
	w, n := s.stride(), s.n
	if r == s.k || r < n && cmpRows(s.words[r*w:(r+1)*w], y) == 0 {
		return false
	}
	if n < s.k {
		s.n++
	} else {
		n-- // the maximum's row is overwritten by the shift
	}
	copy(s.words[(r+1)*w:(n+1)*w], s.words[r*w:n*w])
	copy(s.words[r*w:(r+1)*w], y)
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
	for k < s.k && (i < s.n || j < o.n) {
		var src []uint64
		c := -1 // s's row i against o's row j: the lower goes first
		switch {
		case i >= s.n:
			c = 1
		case j < o.n:
			c = cmpRows(s.words[i*w:(i+1)*w], o.words[j*w:(j+1)*w])
		}
		if c <= 0 {
			src, i = s.words[i*w:(i+1)*w], i+1
		} else {
			src = o.words[j*w : (j+1)*w]
		}
		if c >= 0 { // o's row j went, or equals s's row i: keep one
			j++
		}
		copy(tmp[k*w:(k+1)*w], src)
		k++
	}
	s.n = k
	copy(s.words, tmp[:k*w])
}

// prefixBound returns the largest mp-bit prefix (a row's word 0 masked to
// its first mp bits, 1 ≤ mp ≤ 64) a value can have and still enter s: the
// maximum's on a full set, all ones otherwise. A prefix p passes when
// !bitvec.WordLess(bound, p), which is hash.Linear.PrefixWords' test.
func (s *Set) prefixBound(mp int) uint64 {
	if !s.Full() {
		return ^uint64(0)
	}
	return s.words[(s.n-1)*s.stride()] & prefixMask(mp)
}

func prefixMask(mp int) uint64 { return ^uint64(0) >> (64 - uint(mp)) }

// Scratch is Absorb's working space: one per goroutine, reused across
// sets and batches, sized on first use.
type Scratch struct {
	elem bitvec.BitVec // the packed element Absorb evaluates
	val  []uint64      // its full hash value
}

// Absorb folds into s the values h takes at a batch of packed elements
// xw, h mapping at most 64 bits to the set's width through a carry-less
// kernel: the set ends exactly as one Insert per value would leave it.
// ws and idx are hash.Linear.PrefixWords' outputs, at least as long as
// xw, and mp is the prefix width it compares.
//
// The batch goes in pieces, each sized so that about k of its elements
// are expected to pass the set as the previous piece left it (k at a time
// while the set fills). One PrefixWords call per piece hashes it and
// keeps the elements whose prefix is not above prefixBound, so the bound
// follows the maximum down as the set fills: one call over a large batch
// into a fresh set would keep every element. Each kept element is
// re-tested against the current bound; only then is its full value
// evaluated and its rank looked up by prefix (rank). A value the set
// holds, or one above the maximum of a full set, writes nothing. h must
// have a carry-less kernel for mp-bit prefixes; Absorb panics otherwise.
func (s *Set) Absorb(h *hash.Linear, mp int, xw, ws []uint64, idx []int, sc *Scratch) {
	if sc.elem.Len() != h.InBits() {
		sc.elem = bitvec.New(h.InBits())
	}
	if len(sc.val) != s.stride() {
		sc.val = make([]uint64, s.stride())
	}
	pmask := prefixMask(mp)
	for lo := 0; lo < len(xw); {
		piece := xw[lo:min(lo+s.span(len(xw)-lo), len(xw))]
		lo += len(piece)
		bound := s.prefixBound(mp)
		kept, ok := h.PrefixWords(mp, bound, piece, ws, idx)
		if !ok {
			panic("kmv: hash draw has no carry-less kernel")
		}
		for j, p := range ws[:kept] {
			if bitvec.WordLess(bound, p) {
				continue
			}
			sc.elem.Words()[0] = piece[idx[j]]
			h.EvalInto(sc.elem, bitvec.View(s.bits, sc.val))
			if s.insertAt(s.rank(p, pmask, sc.val), sc.val) {
				bound = s.prefixBound(mp)
			}
		}
	}
}

// span returns how many of rest elements the next piece of Absorb takes:
// k while the set fills, then about k over the fraction of hash values
// below the maximum, so that about k of them are expected to pass.
func (s *Set) span(rest int) int {
	if !s.Full() {
		return s.k
	}
	// The fraction below the maximum is under (m+1)/2^64, m its first 64
	// bits read as a binary fraction.
	m := bits.Reverse64(s.words[(s.n-1)*s.stride()]) | 1
	if hi, _ := bits.Mul64(m, uint64(rest)); hi < uint64(s.k) {
		return rest
	}
	q, _ := bits.Div64(uint64(s.k), 0, m)
	return int(q)
}

// rank returns how many rows are below y, whose mp-bit prefix is p. The
// rows hold the smallest hash values seen, spread near evenly below the
// maximum, so the search starts where p falls between 0 and the
// maximum's prefix and steps from there to the first row whose prefix is
// not below p; full comparisons are needed only along the run of rows
// sharing p.
func (s *Set) rank(p, pmask uint64, y []uint64) int {
	w, n := s.stride(), s.n
	if n == 0 {
		return 0
	}
	r := n
	if f, top := bits.Reverse64(p), bits.Reverse64(s.words[(n-1)*w]&pmask); f <= top {
		r = int(float64(f) / (float64(top) + 1) * float64(n))
	}
	for r > 0 && !bitvec.WordLess(s.words[(r-1)*w]&pmask, p) {
		r--
	}
	for r < n && bitvec.WordLess(s.words[r*w]&pmask, p) {
		r++
	}
	for r < n && s.words[r*w]&pmask == p && cmpRows(s.words[r*w:(r+1)*w], y) < 0 {
		r++
	}
	return r
}

// cmpRows compares two rows of one width in packed order, word by word.
func cmpRows(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if bitvec.WordLess(a[i], b[i]) {
				return -1
			}
			return 1
		}
	}
	return 0
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
	return float64(s.k) / f
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
	cnt := r.Int(s.k)
	for j := 0; j < cnt && r.Err() == nil; j++ {
		r.BitVecInto(s.row(j))
		if w := s.stride(); r.Err() == nil && j > 0 &&
			cmpRows(s.words[(j-1)*w:j*w], s.words[j*w:(j+1)*w]) >= 0 {
			r.Corrupt("k-min values are not strictly ascending")
		}
		s.n++
	}
	return r.Err() == nil
}
