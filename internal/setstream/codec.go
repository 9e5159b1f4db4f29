// Wire codec for the set-stream estimators: versioned snapshot/restore of
// the Minimum-style sketch each stream carries (hash draws plus retained
// minima), the stream's shape (universe width or per-dimension widths),
// and the CNF oracle-query meter. A decoded stream is Merge-compatible
// with a live same-seed stream: the shared-draw precondition
// (hash.Linear.Equal) is checked against the decoded Ax+b structure,
// exactly as for in-process sketches.
//
// Encoding is canonical — minima in rank order, dimensions in declaration
// order — so encode(decode(encode(s))) == encode(s) and a decoded stream's
// estimates, merges, and subsequent ingestion are bit-identical to the
// original's (determinism invariant 6).
package setstream

import (
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/par"
	"mcf0/internal/wire"
)

// Codec versions, one per stream kind; bump when a payload layout changes.
const (
	dnfStreamVersion         byte = 1
	rangeStreamVersion       byte = 1
	progressionStreamVersion byte = 1
	affineStreamVersion      byte = 1
	cnfStreamVersion         byte = 1
)

// Decode bounds on stream shapes: far beyond any real configuration,
// tight enough that corrupt counts can never size pathological
// allocations. The copy and threshold bounds are kmv.MaxCopies and
// kmv.MaxThresh.
const (
	maxStreamBits = 1 << 16
	maxStreamDims = 1 << 10
)

// appendMinSketch emits the nested sketch body: thresh, t, then per copy
// the hash draw and the k-min set body (count, minima in rank order). It
// carries no header of its own — the enclosing stream message's version
// governs it.
func appendMinSketch(dst []byte, s *minSketch) []byte {
	dst = wire.AppendInt(dst, s.thresh)
	dst = wire.AppendInt(dst, len(s.copies))
	for _, c := range s.copies {
		dst, _ = hash.AppendFunc(dst, c.h)
		dst = c.set.AppendBinary(dst)
	}
	return dst
}

// decodeMinSketch reads a nested sketch body over an n-bit universe
// (minima are 3n-bit Toeplitz outputs), validating hash dimensions, the
// slab bound and strictly-ascending rank order.
func decodeMinSketch(r *wire.Reader, n, parallelism int) *minSketch {
	thresh := r.Int(kmv.MaxThresh)
	t := r.Int(kmv.MaxCopies)
	if r.Err() != nil {
		return nil
	}
	if thresh < 1 || t < 1 {
		r.Corrupt("set-stream sketch shape thresh=%d t=%d", thresh, t)
		return nil
	}
	if !kmv.CheckSlab(r, t*thresh, 3*n) {
		return nil
	}
	s := &minSketch{thresh: thresh, workers: par.Workers(parallelism)}
	sets := kmv.Carve(3*n, thresh, t)
	for i := 0; i < t; i++ {
		h := hash.DecodeLinear(r)
		if r.Err() != nil {
			return nil
		}
		if h.InBits() != n || h.OutBits() != 3*n {
			r.Corrupt("set-stream copy %d hash is %d->%d bits, want %d->%d",
				i, h.InBits(), h.OutBits(), n, 3*n)
			return nil
		}
		c := &sketchCopy{h: h, set: sets[i]}
		if !c.set.Decode(r) {
			return nil
		}
		s.copies = append(s.copies, c)
	}
	return s
}

// streamBits validates a universe width read off the wire.
func streamBits(r *wire.Reader, n int) bool {
	if r.Err() != nil {
		return false
	}
	if n < 1 {
		r.Corrupt("set stream over empty universe")
		return false
	}
	return true
}

// appendDims emits a per-dimension width list.
func appendDims(dst []byte, bits []int) []byte {
	dst = wire.AppendInt(dst, len(bits))
	for _, b := range bits {
		dst = wire.AppendInt(dst, b)
	}
	return dst
}

// decodeDims reads a per-dimension width list and its total.
func decodeDims(r *wire.Reader) (bits []int, total int) {
	d := r.Int(maxStreamDims)
	if r.Err() != nil {
		return nil, 0
	}
	if d < 1 {
		r.Corrupt("set stream with no dimensions")
		return nil, 0
	}
	bits = make([]int, d)
	for i := range bits {
		bits[i] = r.Int(maxStreamBits)
		if r.Err() != nil {
			return nil, 0
		}
		if bits[i] < 1 {
			r.Corrupt("set-stream dimension %d has empty width", i)
			return nil, 0
		}
		total += bits[i]
	}
	if total > maxStreamBits {
		r.Corrupt("set-stream dimensions total %d bits, exceeding decode bound", total)
		return nil, 0
	}
	return bits, total
}

// N returns the universe width (variable count) the stream was built over.
func (d *DNFStream) N() int { return d.n }

// N returns the universe width the stream was built over.
func (s *AffineStream) N() int { return s.n }

// N returns the universe width (variable count) the stream was built over.
func (c *CNFStream) N() int { return c.n }

// Dims returns a copy of the per-dimension bit widths.
func (rs *RangeStream) Dims() []int { return append([]int(nil), rs.bits...) }

// Dims returns a copy of the per-dimension bit widths.
func (p *ProgressionStream) Dims() []int { return append([]int(nil), p.bits...) }

// ---- DNFStream ----

// AppendBinary appends the framed wire form: n, then the sketch body.
func (d *DNFStream) AppendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindDNFStream, dnfStreamVersion)
	dst = wire.AppendInt(dst, d.n)
	return appendMinSketch(dst, d.s)
}

// DecodeDNFStreamFrom decodes one framed DNF stream at the reader's
// position; failures land in the reader.
func DecodeDNFStreamFrom(r *wire.Reader, parallelism int) *DNFStream {
	v := r.Header(wire.KindDNFStream)
	if !r.CheckVersion(wire.KindDNFStream, v, dnfStreamVersion) {
		return nil
	}
	n := r.Int(maxStreamBits)
	if !streamBits(r, n) {
		return nil
	}
	s := decodeMinSketch(r, n, parallelism)
	if s == nil {
		return nil
	}
	return &DNFStream{n: n, s: s}
}

// ---- RangeStream ----

// AppendBinary appends the framed wire form: the per-dimension widths,
// then the inner sketch body.
func (rs *RangeStream) AppendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindRangeStream, rangeStreamVersion)
	dst = appendDims(dst, rs.bits)
	return appendMinSketch(dst, rs.inner.s)
}

// DecodeRangeStreamFrom decodes one framed range stream at the reader's
// position; failures land in the reader.
func DecodeRangeStreamFrom(r *wire.Reader, parallelism int) *RangeStream {
	v := r.Header(wire.KindRangeStream)
	if !r.CheckVersion(wire.KindRangeStream, v, rangeStreamVersion) {
		return nil
	}
	bits, total := decodeDims(r)
	if r.Err() != nil {
		return nil
	}
	s := decodeMinSketch(r, total, parallelism)
	if s == nil {
		return nil
	}
	return &RangeStream{inner: &DNFStream{n: total, s: s}, bits: bits}
}

// ---- ProgressionStream ----

// AppendBinary appends the framed wire form: the per-dimension widths,
// then the inner sketch body.
func (p *ProgressionStream) AppendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindProgressionStream, progressionStreamVersion)
	dst = appendDims(dst, p.bits)
	return appendMinSketch(dst, p.inner.s)
}

// DecodeProgressionStreamFrom decodes one framed progression stream at the
// reader's position; failures land in the reader.
func DecodeProgressionStreamFrom(r *wire.Reader, parallelism int) *ProgressionStream {
	v := r.Header(wire.KindProgressionStream)
	if !r.CheckVersion(wire.KindProgressionStream, v, progressionStreamVersion) {
		return nil
	}
	bits, total := decodeDims(r)
	if r.Err() != nil {
		return nil
	}
	s := decodeMinSketch(r, total, parallelism)
	if s == nil {
		return nil
	}
	return &ProgressionStream{inner: &DNFStream{n: total, s: s}, bits: bits}
}

// ---- AffineStream ----

// AppendBinary appends the framed wire form: n, then the sketch body.
func (s *AffineStream) AppendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindAffineStream, affineStreamVersion)
	dst = wire.AppendInt(dst, s.n)
	return appendMinSketch(dst, s.s)
}

// DecodeAffineStreamFrom decodes one framed affine stream at the reader's
// position; failures land in the reader.
func DecodeAffineStreamFrom(r *wire.Reader, parallelism int) *AffineStream {
	v := r.Header(wire.KindAffineStream)
	if !r.CheckVersion(wire.KindAffineStream, v, affineStreamVersion) {
		return nil
	}
	n := r.Int(maxStreamBits)
	if !streamBits(r, n) {
		return nil
	}
	s := decodeMinSketch(r, n, parallelism)
	if s == nil {
		return nil
	}
	return &AffineStream{n: n, s: s}
}

// ---- CNFStream ----

// AppendBinary appends the framed wire form: n, the oracle-query meter,
// then the sketch body.
func (c *CNFStream) AppendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, wire.KindCNFStream, cnfStreamVersion)
	dst = wire.AppendInt(dst, c.n)
	dst = wire.AppendUvarint(dst, uint64(c.Queries))
	return appendMinSketch(dst, c.s)
}

// DecodeCNFStreamFrom decodes one framed CNF stream at the reader's
// position; failures land in the reader.
func DecodeCNFStreamFrom(r *wire.Reader, parallelism int) *CNFStream {
	v := r.Header(wire.KindCNFStream)
	if !r.CheckVersion(wire.KindCNFStream, v, cnfStreamVersion) {
		return nil
	}
	n := r.Int(maxStreamBits)
	if !streamBits(r, n) {
		return nil
	}
	queries := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if queries > 1<<62 {
		r.Corrupt("CNF query meter overflows")
		return nil
	}
	s := decodeMinSketch(r, n, parallelism)
	if s == nil {
		return nil
	}
	return &CNFStream{n: n, s: s, Queries: int64(queries)}
}
