package setstream

import (
	"slices"

	"mcf0/internal/streaming"
)

// merge folds o's minima into s. For streams sharing hash draws
// (same-seed construction) the result is bit-identical to one stream
// having processed both item streams: each copy's set is the sorted
// Thresh-smallest prefix of the union of distinct hash values, which is
// exactly what the k-min merge computes. o is not mutated. Streams that
// differ in universe or dimension widths, copy counts, thresholds or hash
// draws (under which the merged minima would come from two unrelated
// random projections) are refused with streaming.ErrIncompatibleSketch,
// the one sentinel every sketch merge returns.
func (s *stream) merge(o *stream) error {
	if !slices.Equal(s.dims, o.dims) || !s.sk.Merge(o.sk) {
		return streaming.ErrIncompatibleSketch
	}
	return nil
}

// Merge folds other's sketch state into d; both streams must be built
// over the same universe with the same seed and parameters. After the
// merge, d estimates F0 of the union of both item streams.
func (d *DNFStream) Merge(other *DNFStream) error { return d.merge(&other.stream) }

// Merge folds other's sketch state into r (same-seed streams only).
func (r *RangeStream) Merge(other *RangeStream) error { return r.merge(&other.stream) }

// Merge folds other's sketch state into p (same-seed streams only).
func (p *ProgressionStream) Merge(other *ProgressionStream) error { return p.merge(&other.stream) }

// Merge folds other's sketch state into s (same-seed streams only).
func (s *AffineStream) Merge(other *AffineStream) error { return s.merge(&other.stream) }
