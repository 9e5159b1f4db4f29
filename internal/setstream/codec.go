// Wire codec for the set-stream estimators: versioned snapshot/restore of
// the stream's shape (universe width, or per-dimension widths) and its
// kmv.Sketch (hash draws plus retained minima). Every kind shares one
// layout and differs only in its kind byte and shape. A decoded stream is
// Merge-compatible with a live same-seed stream: the shared-draw
// precondition (hash.Linear.Equal) is checked against the decoded Ax+b
// structure, exactly as for in-process sketches.
//
// Encoding is canonical — minima in rank order, dimensions in declaration
// order — so encode(decode(encode(s))) == encode(s) and a decoded stream's
// estimates, merges, and subsequent ingestion are bit-identical to the
// original's (determinism invariant 6).
package setstream

import (
	"mcf0/internal/kmv"
	"mcf0/internal/par"
	"mcf0/internal/wire"
)

// streamVersion is every stream kind's codec version; bump it when the
// payload layout changes.
const streamVersion byte = 1

// Decode bounds on stream shapes: far beyond any real configuration,
// tight enough that corrupt counts can never size pathological
// allocations. CheckShape holds constructors to the same bounds. The copy
// and threshold bounds are kmv.MaxCopies and kmv.MaxThresh.
const (
	maxStreamBits = 1 << 16
	maxStreamDims = 1 << 10
)

// AppendBinary appends the framed wire form: the kind's header, the
// shape — n for the DNF and affine kinds, the per-dimension widths for
// the range and progression kinds — then the kmv.Sketch body.
func (s *stream) AppendBinary(dst []byte) []byte {
	dst = wire.AppendHeader(dst, s.kind, streamVersion)
	if s.dims == nil {
		dst = wire.AppendInt(dst, s.N())
	} else {
		dst = wire.AppendInt(dst, len(s.dims))
		for _, b := range s.dims {
			dst = wire.AppendInt(dst, b)
		}
	}
	return s.sk.AppendBinary(dst)
}

// decodeStream decodes one framed stream of the given kind at the
// reader's position; failures land in the reader and it returns nil.
func decodeStream[T ~struct{ stream }](r *wire.Reader, kind byte, parallelism int) *T {
	v := r.Header(kind)
	if !r.CheckVersion(kind, v, streamVersion) {
		return nil
	}
	var dims []int
	var n int
	if kind == wire.KindRangeStream || kind == wire.KindProgressionStream {
		dims, n = decodeDims(r)
	} else if n = r.Int(maxStreamBits); r.Err() == nil && n < 1 {
		r.Corrupt("set stream over empty universe")
	}
	if r.Err() != nil {
		return nil
	}
	sk := kmv.DecodeSketch(r, n)
	if sk == nil {
		return nil
	}
	return &T{stream{kind: kind, dims: dims, sk: sk, workers: par.Workers(parallelism)}}
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

// DecodeDNFStreamFrom decodes one framed DNF stream at the reader's
// position; failures land in the reader.
func DecodeDNFStreamFrom(r *wire.Reader, parallelism int) *DNFStream {
	return decodeStream[DNFStream](r, wire.KindDNFStream, parallelism)
}

// DecodeRangeStreamFrom decodes one framed range stream at the reader's
// position; failures land in the reader.
func DecodeRangeStreamFrom(r *wire.Reader, parallelism int) *RangeStream {
	return decodeStream[RangeStream](r, wire.KindRangeStream, parallelism)
}

// DecodeProgressionStreamFrom decodes one framed progression stream at
// the reader's position; failures land in the reader.
func DecodeProgressionStreamFrom(r *wire.Reader, parallelism int) *ProgressionStream {
	return decodeStream[ProgressionStream](r, wire.KindProgressionStream, parallelism)
}

// DecodeAffineStreamFrom decodes one framed affine stream at the reader's
// position; failures land in the reader.
func DecodeAffineStreamFrom(r *wire.Reader, parallelism int) *AffineStream {
	return decodeStream[AffineStream](r, wire.KindAffineStream, parallelism)
}
