package setstream

import (
	"errors"
	"slices"
)

// ErrIncompatibleSketch is returned by Merge when two streams cannot be
// combined: different universe widths, dimension widths, copy counts,
// thresholds — or different hash draws, under which the merged minima
// would be drawn from two unrelated random projections.
var ErrIncompatibleSketch = errors.New("setstream: sketches are not mergeable (mismatched shape or hash draws)")

// merge folds o's minima into s. For streams sharing hash draws
// (same-seed construction) the result is bit-identical to one stream
// having processed both item streams: each copy's set is the sorted
// Thresh-smallest prefix of the union of distinct hash values, which is
// exactly what the k-min merge computes. o is not mutated.
func (s *stream) merge(o *stream) error {
	if !slices.Equal(s.dims, o.dims) || !s.sk.Merge(o.sk) {
		return ErrIncompatibleSketch
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
