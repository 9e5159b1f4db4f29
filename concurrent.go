package mcf0

import (
	"fmt"

	"mcf0/internal/streaming"
)

// Merge folds other's sketch state into f, so that f afterwards estimates
// F0 of the union of both element streams — bit-identical to one sketch
// having ingested both streams interleaved in any order. The two sketches
// must share hash draws: built with the same algorithm, width, and seed
// (or decoded from such a sketch's snapshot). other is not mutated.
func (f *F0) Merge(other *F0) error {
	if other.nBits != f.nBits {
		return fmt.Errorf("mcf0: cannot merge %d-bit and %d-bit sketches", f.nBits, other.nBits)
	}
	return f.sk.Merge(other.sk)
}

// ConcurrentF0 is a lock-free concurrent-ingestion front over an F0
// sketch: up to P replicas sharing one seed sketch's hash draws, each
// padded onto its own cache lines, so AddBatch may be called from any
// number of goroutines without ever serialising on a shared lock — a
// writer claims the lowest replica it can lock without blocking. The
// front starts with one replica and builds another, empty, only when a
// writer finds every built one busy with another writer, so it holds as
// many as its writers' concurrency reached. Estimate merges the replicas
// on demand and caches the answer until the next write; a cached answer
// takes no replica lock.
//
// Because the underlying sketches are idempotent, order-insensitive
// functions of the element set and all replicas share draws, the merged
// estimate does not depend on which goroutine's elements landed on which
// replica: fixed-seed ConcurrentF0 estimates are bit-identical to a
// serial F0 over the same element set, at every replica count.
//
// A sketch that panics inside the front (a bug, never a caller error)
// fails it: the locks it held are released, and from then on AddBatch
// ingests nothing, estimates are 0 and Snapshot is nil, all at once, and
// Err reports the failure. Rebuild such a sketch from a snapshot.
type ConcurrentF0 struct {
	nBits int
	front *streaming.Concurrent
}

// NewConcurrentF0 builds a concurrent F0 sketch over an nBits-bit
// universe with the given replica cap (replicas ≤ 0 selects
// GOMAXPROCS); it allocates one replica, and the others as concurrent
// writers need them. Each replica ingests serially on the claiming goroutine —
// cfg.Parallelism is forced to 1, since concurrency comes from the
// callers' goroutines rather than a per-batch worker pool.
func NewConcurrentF0(nBits int, alg Algorithm, cfg Config, replicas int) (*ConcurrentF0, error) {
	cfg.Parallelism = 1
	seed, err := NewF0(nBits, alg, cfg)
	if err != nil {
		return nil, err
	}
	return &ConcurrentF0{nBits: nBits, front: streaming.NewConcurrent(seed.sk, replicas)}, nil
}

// Replicas returns the replica cap.
func (c *ConcurrentF0) Replicas() int { return c.front.Replicas() }

// Bits returns the universe width in bits.
func (c *ConcurrentF0) Bits() int { return c.nBits }

// Version returns the number of completed writes (AddBatch calls)
// absorbed so far: an unchanged Version between two reads means no write
// completed in between. Estimate caches against this counter; use
// EstimateVersioned for the version an estimate covers and whether it
// was a cache hit, rather than caching on top of the front.
func (c *ConcurrentF0) Version() uint64 { return c.front.Version() }

// AddBatch absorbs a chunk of stream elements on one replica, amortising
// acquisition over the chunk; safe to call from any goroutine. The whole
// slice is validated first — an out-of-range element panics with the
// batch rejected atomically (no elements ingested) — and
// elements the claimed replica already holds, from this chunk or an
// earlier one, are mostly dropped before its sketch hashes them (an
// exact no-op for a set function; callers counting accepted elements,
// such as the service's items meter, still count the raw chunk). A
// chunk whose elements are all dropped still counts in Version. Each
// replica's cache is its own scratch, kept while the replica lives, so
// steady-state AddBatch allocates nothing per element. On a failed
// sketch it ingests nothing (see Err).
func (c *ConcurrentF0) AddBatch(xs []uint64) {
	checkElements(xs, c.nBits)
	c.front.ProcessBatch(xs)
}

// Estimate merges the replicas and returns the combined distinct-count
// approximation; safe to interleave with concurrent Adds (their elements
// land in a later estimate). A failed sketch estimates 0 (see Err).
func (c *ConcurrentF0) Estimate() float64 { return c.front.Estimate() }

// EstimateVersioned is Estimate that also reports the write-version the
// estimate covers and whether it was served from the front's cache (a
// hit takes no replica lock, so it never waits on an in-flight write).
// A failed sketch returns zeros (see Err).
func (c *ConcurrentF0) EstimateVersioned() (est float64, version uint64, cached bool) {
	return c.front.EstimateVersioned()
}

// Err returns the sketch's failure, an error wrapping ErrSketchFailed, or
// nil while it is healthy. A failure is final; check Err after a call
// whose result matters.
func (c *ConcurrentF0) Err() error { return c.front.Err() }

// ErrSketchFailed is wrapped by the failure of a ConcurrentF0 whose sketch
// panicked; its state can no longer be trusted.
var ErrSketchFailed = streaming.ErrFailed

// SketchWords returns the summed footprint of the replicas built, in
// 64-bit words. Replica 0 is the merged state, so P built replicas report
// P copies. From the first drain with two or more built (an estimate
// miss or a snapshot), it also counts the replay logs of replicas
// 1…P−1, replayCap words each: thresh for Bucketing and Minimum, 0 for
// Estimation, whose replicas never log. The replicas' element caches are
// not counted.
func (c *ConcurrentF0) SketchWords() int { return c.front.SketchWords() }

// Merge folds other's sketch state into d (same n, same seed and
// parameters required); d afterwards estimates the union of both DNF-set
// streams.
func (d *DNFSetF0) Merge(other *DNFSetF0) error { return d.inner.Merge(other.inner) }

// Merge folds other's sketch state into r (same dimensions, same seed and
// parameters required).
func (r *RangeF0) Merge(other *RangeF0) error { return r.inner.Merge(other.inner) }

// Merge folds other's sketch state into p (same dimensions, same seed and
// parameters required).
func (p *ProgressionF0) Merge(other *ProgressionF0) error { return p.inner.Merge(other.inner) }

// Merge folds other's sketch state into a (same width, same seed and
// parameters required).
func (a *AffineF0) Merge(other *AffineF0) error { return a.inner.Merge(other.inner) }
