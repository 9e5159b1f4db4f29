// Wire codec for the streaming sketches: versioned snapshot/restore of
// complete sketch state — hash draws, per-copy slab-backed state, and
// thresholds — so a sketch decoded on another node (or after a crash) is
// Merge-compatible with one built locally from the same seed, with the
// shared-draw precondition enforced structurally across the wire instead
// of by pointer identity.
//
// Every sketch kind is one top-level message (wire magic + kind byte +
// version byte; unknown kinds and versions are rejected with typed
// errors, never a panic). Payloads ride bitvec's flat storage: per-copy
// rows decode directly into freshly carved slab rows, so restore costs the
// same handful of allocations as Clone.
//
// Canonical form: encoding is a function of the state alone (key-order
// cells, rank-order minima), and every sketch's state is a function of
// (seed, config, element set), so snapshot bytes are too, and
// encode(decode(encode(s))) == encode(s). A decoded sketch's estimates,
// merges, and subsequent ingestion are bit-identical to the original's
// (determinism invariant 6).
package streaming

import (
	"fmt"
	"slices"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2poly"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/wire"
)

// Codec versions, one per sketch kind; bump when a payload layout changes.
const (
	bucketingVersion  byte = 1
	minimumVersion    byte = 1
	estimationVersion byte = 1
)

// maxSketchBits bounds a decoded universe width, as the constructors do;
// the shared copy and threshold bounds are kmv.MaxCopies and
// kmv.MaxThresh.
const maxSketchBits = 64

// fits reports whether a sketch of the given wire kind over n-bit
// elements, t copies of thresh each, is inside the decode bounds: 1 ≤ n ≤
// 64, 1 ≤ thresh ≤ kmv.MaxThresh, 1 ≤ t ≤ kmv.MaxCopies, and the kind's
// largest block within kmv.MaxSlabWords — Bucketing's t·(thresh+1) n-bit
// cell rows, Minimum's kmv.Sketch (kmv.Fits) and Estimation's t×thresh
// hash grid. The Bucketing rows bound also bounds its cell tables: a
// table has fewer than 4·(thresh+1) int32 entries, so the tables hold
// fewer than twice the words of 64-bit rows, and no separate table bound
// can reject a shape the rows bound admits.
func fits(kind byte, n, thresh, t int) bool {
	if n < 1 || n > maxSketchBits || thresh < 1 || thresh > kmv.MaxThresh ||
		t < 1 || t > kmv.MaxCopies {
		return false
	}
	switch kind {
	case wire.KindBucketing:
		return uint64(t)*uint64(thresh+1)*uint64((n+63)/64) <= kmv.MaxSlabWords
	case wire.KindMinimum:
		return kmv.Fits(n, thresh, t)
	case wire.KindEstimation:
		return uint64(t)*uint64(thresh) <= kmv.MaxSlabWords
	}
	return true
}

// New builds a sketch of the given wire kind (wire.KindBucketing,
// KindMinimum or KindEstimation) over n-bit elements. It refuses, before
// allocating, every shape at opts' resolved Thresh and Iterations that
// the kind's snapshot decoder would refuse.
func New(kind byte, n int, opts Options) (Sketch, error) {
	if o := opts.Resolve(0); !fits(kind, n, o.Thresh, o.Iterations) {
		return nil, fmt.Errorf("streaming: %d copies of thresh %d over %d bits exceed the decode bound",
			o.Iterations, o.Thresh, n)
	}
	switch kind {
	case wire.KindBucketing:
		return NewBucketing(n, opts), nil
	case wire.KindMinimum:
		return NewMinimum(n, opts), nil
	case wire.KindEstimation:
		return NewEstimation(n, opts), nil
	}
	return nil, fmt.Errorf("streaming: no constructor for sketch kind %#02x", kind)
}

// checkShape is fits for decoders: it fails r on a shape outside the
// bounds.
func checkShape(r *wire.Reader, kind byte, n, thresh, t int) bool {
	if !fits(kind, n, thresh, t) {
		r.Corrupt("sketch kind %#02x shape n=%d thresh=%d t=%d outside the decode bound",
			kind, n, thresh, t)
		return false
	}
	return true
}

// SketchBits returns the universe width (element bits) of s. Wrapper
// layers use it to cross-check their own recorded width against a
// decoded sketch's.
func SketchBits(s Sketch) int {
	switch sk := s.(type) {
	case *Bucketing:
		return sk.n
	case *Minimum:
		return sk.sk.N()
	}
	return s.(*Estimation).n
}

// AppendSketch appends the framed wire form of s.
func AppendSketch(dst []byte, s Sketch) []byte { return s.appendBinary(dst) }

// DecodeSketchFrom decodes one framed sketch message at the reader's
// position, dispatching on the kind byte; failures land in the reader.
func DecodeSketchFrom(r *wire.Reader, parallelism int) Sketch {
	kind, err := r.PeekKind()
	if err != nil {
		r.Corrupt("sketch header unreadable")
		return nil
	}
	var s Sketch
	switch kind {
	case wire.KindBucketing:
		s = decodeBucketing(r, parallelism)
	case wire.KindMinimum:
		s = decodeMinimum(r, parallelism)
	case wire.KindEstimation:
		s = decodeEstimation(r, parallelism)
	default:
		r.Corrupt("unknown sketch kind %#02x", kind)
		return nil
	}
	if r.Err() != nil {
		return nil
	}
	return s
}

// ---- Bucketing ----

// appendKey emits a stored key as two words: the packed element, then
// the key's high word, which is zero in a universe of at most 64 bits.
func appendKey(dst []byte, key uint64) []byte {
	return wire.AppendUint64(wire.AppendUint64(dst, key), 0)
}

// readKey consumes a key appendKey wrote, refusing one that is not a
// packed n-bit element.
func readKey(r *wire.Reader, n int) uint64 {
	key, hi := r.Uint64(), r.Uint64()
	if r.Err() == nil && (hi != 0 || key>>uint(n) != 0) {
		r.Corrupt("key %#x:%#x is not a packed %d-bit element", hi, key, n)
	}
	return key
}

// appendBinary emits n, thresh, t, then per copy the hash draw, the
// sampling level, and the cells in ascending key order (slot order
// follows the copy's history) as (key, hash-value-row) pairs.
func (b *Bucketing) appendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindBucketing, bucketingVersion)
	dst = wire.AppendInt(dst, b.n)
	dst = wire.AppendInt(dst, b.thresh)
	dst = wire.AppendInt(dst, len(b.copies))
	keys := make([]uint64, 0, b.thresh+1)
	for _, c := range b.copies {
		dst = hash.AppendLinear(dst, c.h)
		dst = wire.AppendInt(dst, c.level)
		dst = wire.AppendInt(dst, c.size())
		keys = append(keys[:0], c.keys...)
		slices.Sort(keys)
		for _, key := range keys {
			s, _ := c.find(key)
			dst = appendKey(dst, key)
			dst = wire.AppendBitVec(dst, bitvec.View(b.n, c.hv[s:s+1]))
		}
	}
	return dst
}

func decodeBucketing(r *wire.Reader, parallelism int) *Bucketing {
	v := r.Header(wire.KindBucketing)
	if !r.CheckVersion(wire.KindBucketing, v, bucketingVersion) {
		return nil
	}
	n := r.Int(maxSketchBits)
	thresh := r.Int(kmv.MaxThresh)
	t := r.Int(kmv.MaxCopies)
	if r.Err() != nil {
		return nil
	}
	if !checkShape(r, wire.KindBucketing, n, thresh, t) {
		return nil
	}
	b := newBucketing(n, thresh, t, newEngine(parallelism, minBatchCheap))
	for i, c := range b.copies {
		c.h = hash.DecodeLinear(r)
		c.level = r.Int(n + 1)
		cnt := r.Int(thresh)
		if r.Err() != nil {
			return nil
		}
		if c.h.InBits() != n || c.h.OutBits() != n {
			r.Corrupt("bucketing copy %d hash is %d->%d bits, want %d->%d",
				i, c.h.InBits(), c.h.OutBits(), n, n)
			return nil
		}
		if !hasKernel(c.h, n) {
			r.Corrupt("bucketing copy %d hash is not a Toeplitz draw with a kernel", i)
			return nil
		}
		// Cells fill slots [0, cnt) in arrival order, which need not be
		// key order: slot placement reaches no estimate, merge or byte.
		c.hv, c.keys = c.hv[:cnt], c.keys[:cnt]
		for s := 0; s < cnt; s++ {
			key := readKey(r, n)
			r.BitVecInto(bitvec.View(n, c.hv[s:s+1]))
			if r.Err() != nil {
				return nil
			}
			slot, pos := c.find(key)
			if slot >= 0 {
				r.Corrupt("bucketing copy %d has duplicate cell keys", i)
				return nil
			}
			if !c.admits(c.hv[s]) {
				r.Corrupt("bucketing copy %d cell escapes its sampling level", i)
				return nil
			}
			c.keys[s] = key
			c.table[pos] = int32(s) + 1
		}
	}
	return b
}

// ---- Minimum ----

// appendBinary emits n, then the kmv.Sketch body: thresh, t, and per copy
// the hash draw and the retained minima in rank order.
func (m *Minimum) appendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindMinimum, minimumVersion)
	dst = wire.AppendInt(dst, m.sk.N())
	return m.sk.AppendBinary(dst)
}

func decodeMinimum(r *wire.Reader, parallelism int) *Minimum {
	v := r.Header(wire.KindMinimum)
	if !r.CheckVersion(wire.KindMinimum, v, minimumVersion) {
		return nil
	}
	n := r.Int(maxSketchBits)
	if r.Err() != nil {
		return nil
	}
	if n < 1 {
		r.Corrupt("minimum sketch over empty universe")
		return nil
	}
	sk := kmv.DecodeSketch(r, n)
	if sk == nil {
		return nil
	}
	for i := 0; i < sk.Copies(); i++ {
		if h, _ := sk.Copy(i); !hasKernel(h, minPrefixBits(n)) {
			r.Corrupt("minimum copy %d hash is not a Toeplitz draw with a kernel", i)
			return nil
		}
	}
	return newMinimum(sk, newEngine(parallelism, minBatchCheap))
}

// ---- Estimation ----

// appendBinary emits n, thresh, t, the t×Thresh hash grid (each cell a
// polynomial blob, row-major), the trailing-zero grid, and the parallel
// Flajolet–Martin tracker.
func (e *Estimation) appendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindEstimation, estimationVersion)
	dst = wire.AppendInt(dst, e.n)
	dst = wire.AppendInt(dst, e.thresh)
	dst = wire.AppendInt(dst, e.copies())
	for c := 0; c < len(e.coeffs); c += e.wise {
		dst = hash.AppendPoly(dst, e.n, e.coeffs[c:c+e.wise])
	}
	for _, v := range e.s {
		dst = wire.AppendInt(dst, int(v)+1) // v ∈ [−1, n]
	}
	return e.fm.appendBody(dst)
}

func decodeEstimation(r *wire.Reader, parallelism int) *Estimation {
	v := r.Header(wire.KindEstimation)
	if !r.CheckVersion(wire.KindEstimation, v, estimationVersion) {
		return nil
	}
	n := r.Int(maxSketchBits)
	thresh := r.Int(kmv.MaxThresh)
	t := r.Int(kmv.MaxCopies)
	if r.Err() != nil {
		return nil
	}
	if !checkShape(r, wire.KindEstimation, n, thresh, t) {
		return nil
	}
	e := &Estimation{thresh: thresh, n: n, field: gf2poly.NewField(n),
		eng: newEngine(parallelism, minBatchEstimation)}
	// The first cell fixes s. The slab is sized only once the input is
	// known to hold every other cell at s coefficients, 8·s bytes each:
	// the input, not kmv.MaxSlabWords, bounds t·thresh·s, as New bounds
	// only t·thresh.
	cells := t * thresh
	e.coeffs = hash.DecodePoly(r, n, nil)
	e.wise = len(e.coeffs)
	if r.Err() != nil {
		return nil
	}
	if uint64(cells-1)*uint64(e.wise) > uint64(r.Remaining())/8 {
		r.Corrupt("estimation grid of %d cells of %d coefficients exceeds the input", cells, e.wise)
		return nil
	}
	e.coeffs = slices.Grow(e.coeffs, (cells-1)*e.wise)
	for c := 1; c < cells; c++ {
		e.coeffs = hash.DecodePoly(r, n, e.coeffs)
		if r.Err() == nil && len(e.coeffs) != (c+1)*e.wise {
			r.Corrupt("estimation grid cell %d has %d coefficients, cell 0 has %d",
				c, len(e.coeffs)-c*e.wise, e.wise)
		}
		if r.Err() != nil {
			return nil
		}
	}
	e.s = make([]int8, t*thresh)
	for i := range e.s {
		e.s[i] = int8(r.Int(n+1) - 1)
	}
	e.fm = decodeFMBody(r, n, t)
	if r.Err() != nil {
		return nil
	}
	return e
}

// ---- Estimation's Flajolet–Martin tracker ----

// appendBody emits the tracker, nested under Estimation's version: t,
// then per copy the hash draw and the max-trailing-zero counter.
func (f *fmTracker) appendBody(dst []byte) []byte {
	dst = wire.AppendInt(dst, len(f.hs))
	for i, h := range f.hs {
		dst = hash.AppendLinear(dst, h)
		dst = wire.AppendInt(dst, f.max[i]+1) // max ∈ [−1, OutBits]
	}
	return dst
}

// decodeFMBody consumes an appendBody tracker, refusing one whose copy
// count is not the grid's t or whose draws are not n→n bits, as
// newFMTracker draws them.
func decodeFMBody(r *wire.Reader, n, t int) *fmTracker {
	copies := r.Int(kmv.MaxCopies)
	if r.Err() != nil {
		return nil
	}
	if copies != t {
		r.Corrupt("flajolet-martin tracker has %d copies, the grid %d", copies, t)
		return nil
	}
	f := &fmTracker{}
	for i := 0; i < t; i++ {
		h := hash.DecodeLinear(r)
		if r.Err() != nil {
			return nil
		}
		if h.InBits() != n || h.OutBits() != n {
			r.Corrupt("flajolet-martin copy %d hash is %d->%d bits, want %d->%d",
				i, h.InBits(), h.OutBits(), n, n)
			return nil
		}
		maxTZ := r.Int(n+1) - 1
		if r.Err() != nil {
			return nil
		}
		f.addCopy(h, maxTZ)
	}
	return f
}
