package setstream

import (
	"errors"

	"mcf0/internal/bitvec"
)

// ErrIncompatibleSketch is returned by Merge when two streams cannot be
// combined: different universe widths, copy counts, thresholds — or
// different hash draws, under which the merged minima would be drawn from
// two unrelated random projections.
var ErrIncompatibleSketch = errors.New("setstream: sketches are not mergeable (mismatched shape or hash draws)")

// merge folds other's minima into s. For sketches sharing hash draws
// (same-seed construction) the result is bit-identical to one sketch
// having processed both item streams: each copy's set is the sorted
// Thresh-smallest prefix of the union of distinct hash values, which is
// exactly what the k-min merge computes. other is not mutated.
func (s *minSketch) merge(other *minSketch) error {
	if other.thresh != s.thresh || len(other.copies) != len(s.copies) {
		return ErrIncompatibleSketch
	}
	for i := range s.copies {
		if !s.copies[i].h.Equal(other.copies[i].h) {
			return ErrIncompatibleSketch
		}
	}
	if s.mergeTmp == nil {
		s.mergeTmp = bitvec.NewSlab(s.copies[0].set.Bits(), s.thresh)
	}
	for i := range s.copies {
		s.copies[i].set.Merge(&other.copies[i].set, s.mergeTmp)
	}
	return nil
}

// Merge folds other's sketch state into d; both streams must be built
// over the same universe with the same seed and parameters. After the
// merge, d estimates F0 of the union of both item streams.
func (d *DNFStream) Merge(other *DNFStream) error {
	if other.n != d.n {
		return ErrIncompatibleSketch
	}
	return d.s.merge(other.s)
}

// Merge folds other's sketch state into r (same-seed streams only).
func (r *RangeStream) Merge(other *RangeStream) error {
	if len(other.bits) != len(r.bits) {
		return ErrIncompatibleSketch
	}
	for i := range r.bits {
		if other.bits[i] != r.bits[i] {
			return ErrIncompatibleSketch
		}
	}
	return r.inner.Merge(other.inner)
}

// Merge folds other's sketch state into p (same-seed streams only).
func (p *ProgressionStream) Merge(other *ProgressionStream) error {
	if len(other.bits) != len(p.bits) {
		return ErrIncompatibleSketch
	}
	for i := range p.bits {
		if other.bits[i] != p.bits[i] {
			return ErrIncompatibleSketch
		}
	}
	return p.inner.Merge(other.inner)
}

// Merge folds other's sketch state into s (same-seed streams only).
func (s *AffineStream) Merge(other *AffineStream) error {
	if other.n != s.n {
		return ErrIncompatibleSketch
	}
	return s.s.merge(other.s)
}

// Merge folds other's sketch state into c (same-seed streams only) and
// adds other's oracle-query meter to c's.
func (c *CNFStream) Merge(other *CNFStream) error {
	if other.n != c.n {
		return ErrIncompatibleSketch
	}
	if err := c.s.merge(other.s); err != nil {
		return err
	}
	c.Queries += other.Queries
	return nil
}
