package mcf0

import (
	"fmt"

	"mcf0/internal/streaming"
)

// Merge folds other's sketch state into f, so that f afterwards estimates
// F0 of the union of both element streams — bit-identical to one sketch
// having ingested both streams interleaved in any order. The two sketches
// must share hash draws: built with the same algorithm, width, and seed
// (or decoded from such a sketch's snapshot); otherwise Merge returns an
// error wrapping ErrIncompatibleSketch and leaves f unchanged.
// A merge counts as one write in Version. other is not mutated, and may
// be written concurrently.
func (f *F0) Merge(other *F0) error {
	if other.nBits != f.nBits {
		return fmt.Errorf("mcf0: cannot merge %d-bit and %d-bit sketches: %w", f.nBits, other.nBits, ErrIncompatibleSketch)
	}
	src := other.front.MergedClone()
	if src == nil {
		return other.Err()
	}
	return f.front.Merge(src)
}

// ConcurrentF0 is F0: a sketch from NewConcurrentF0 or
// DecodeConcurrentF0 is an F0 with a larger replica cap.
type ConcurrentF0 = F0

// NewConcurrentF0 builds an F0 sketch over an nBits-bit universe with the
// given replica cap (replicas ≤ 0 selects GOMAXPROCS); it allocates one
// replica, and the others as concurrent writers need them. Each replica
// ingests serially on the claiming goroutine — cfg.Parallelism is forced
// to 1, since concurrency comes from the callers' goroutines rather than
// a per-batch worker pool.
func NewConcurrentF0(nBits int, alg Algorithm, cfg Config, replicas int) (*F0, error) {
	cfg.Parallelism = 1
	return newF0(nBits, alg, cfg, replicas)
}

// Replicas returns the replica cap: 1 for NewF0 and DecodeF0.
func (f *F0) Replicas() int { return f.front.Replicas() }

// Bits returns the universe width in bits.
func (f *F0) Bits() int { return f.nBits }

// Version returns the number of completed writes (non-empty AddBatch
// calls and Merges) absorbed so far: an unchanged Version between two
// reads means no write completed in between. Estimate caches against
// this counter; use EstimateVersioned for the version an estimate covers
// and whether it was a cache hit, rather than caching on top of the
// sketch.
func (f *F0) Version() uint64 { return f.front.Version() }

// EstimateVersioned is Estimate that also reports the write-version the
// estimate covers and whether it was served from the cache (a hit takes
// no replica lock, so it never waits on an in-flight write). A failed
// sketch returns zeros (see Err).
func (f *F0) EstimateVersioned() (est float64, version uint64, cached bool) {
	return f.front.EstimateVersioned()
}

// Err returns the sketch's failure, an error wrapping ErrSketchFailed, or
// nil while it is healthy. A failure is final; check Err after a call
// whose result matters.
func (f *F0) Err() error { return f.front.Err() }

// ErrSketchFailed is wrapped by the failure of an F0 whose sketch
// panicked; its state can no longer be trusted.
var ErrSketchFailed = streaming.ErrFailed

// ErrIncompatibleSketch is wrapped by the error of every refused Merge —
// of F0, DNFSetF0, RangeF0, ProgressionF0 and AffineF0 alike: the two
// sketches differ in algorithm, width, shape or hash draws.
var ErrIncompatibleSketch = streaming.ErrIncompatibleSketch

// Merge folds other's sketch state into d (same n, same seed and
// parameters required); d afterwards estimates the union of both DNF-set
// streams. A refused merge returns ErrIncompatibleSketch and leaves d
// unchanged.
func (d *DNFSetF0) Merge(other *DNFSetF0) error { return d.inner.Merge(other.inner) }

// Merge folds other's sketch state into r (same dimensions, same seed and
// parameters required, else ErrIncompatibleSketch).
func (r *RangeF0) Merge(other *RangeF0) error { return r.inner.Merge(other.inner) }

// Merge folds other's sketch state into p (same dimensions, same seed and
// parameters required, else ErrIncompatibleSketch).
func (p *ProgressionF0) Merge(other *ProgressionF0) error { return p.inner.Merge(other.inner) }

// Merge folds other's sketch state into a (same width, same seed and
// parameters required, else ErrIncompatibleSketch).
func (a *AffineF0) Merge(other *AffineF0) error { return a.inner.Merge(other.inner) }
