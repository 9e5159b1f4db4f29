package streaming

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"mcf0/internal/par"
)

// ErrFailed is wrapped by every error of a Concurrent front whose sketch
// panicked: the state of the replica or target the panic left cannot be
// trusted, so the front answers nothing more.
var ErrFailed = errors.New("streaming: sketch failed")

// Concurrent is a lock-free-ingestion front over any mergeable Sketch:
// P replicas cloned from one seed (so all replicas share hash draws),
// each padded onto its own cache lines. ProcessBatch may be called from
// any number of goroutines concurrently — a caller claims
// whichever replica it can TryLock first, so ingestion never serialises
// on a shared lock. Estimate locks all replicas, brings a merge target
// the front keeps up to date with them, and caches the answer until the
// next write; a cached answer is served without touching any replica
// lock.
//
// Because every sketch in this package is an idempotent, order-
// insensitive function of the element set and the replicas share draws,
// the merged state — and therefore the estimate — does not depend on
// which replica absorbed which element: fixed-seed estimates are
// bit-identical to a single serial sketch at every replica count.
//
// The same argument lets a miss work in proportion to what changed.
// Once the target has absorbed a replica, the replica logs by value the
// elements it takes in, and the next miss replays the log into the
// target, skipping replicas with an empty log: the target holds the
// state of its element set and each replica's set grew by its log, so
// the target ends as the state of the union — what a fresh clone-and-
// merge builds. A log is capped at the sketch's replayCap; a write past
// the cap drops the log and marks the replica stale, and a miss merges
// stale replicas in full, as the first miss does every replica.
//
// Estimate and ProcessBatch are safe to interleave freely;
// SketchWords reports the summed footprint of the replicas, the kept
// target and the replicas' logs.
//
// A sketch call that panics under a lock — an absorb, a merge, a replay —
// releases every lock it held and fails the front, and Err reports the
// failure from then on. That call and every later one return at once
// without touching a sketch: writes absorb nothing, estimates are 0 and
// MergedClone is nil. Nothing waits on the failed replica.
type Concurrent struct {
	replicas []replica
	// rr distributes writers across replicas: each acquisition starts its
	// TryLock rotation at a different replica.
	rr atomic.Uint64
	// version counts completed writes; it is bumped *before* the replica
	// lock releases, so once a merge holds every lock the version it
	// reads covers exactly the writes the merge will see. In-flight
	// writers are still blocked and bump it later, invalidating the cache.
	version atomic.Uint64

	// estMu guards the estimate cache: the last merged estimate and the
	// version it covers.
	estMu    sync.Mutex
	cached   float64
	cachedV  uint64
	hasCache bool
	// acc is the kept merge target of a multi-replica front, guarded by
	// estMu: nil until the first estimate miss clones replica 0, then
	// every miss drains each replica into it (under every replica lock).
	acc Sketch

	// failed is the front's failure, nil while it is healthy; it is set
	// once, before the failing call releases its locks.
	failed atomic.Pointer[error]
}

// replicaState is the payload of one replica slot: its lock and sketch,
// and the log or stale mark of what the kept target has not absorbed.
type replicaState struct {
	mu    sync.Mutex
	sk    Sketch
	log   []uint64
	stale bool
}

// replicaSpan is the stride replicas are padded to: two cache lines, so
// writers hammering neighbouring replicas never false-share (the spatial
// prefetcher pairs adjacent 64-byte lines).
const replicaSpan = 128

// replica pads each sketch's state onto its own cache lines. The pad is
// computed from the real field layout — unsafe.Sizeof is a compile-time
// constant — so it stays correct across pointer widths and future field
// changes instead of hard-coding the 64-bit layout's 24 bytes.
type replica struct {
	replicaState
	_ [(replicaSpan - unsafe.Sizeof(replicaState{})%replicaSpan) % replicaSpan]byte
}

// NewConcurrent wraps seed in a concurrent front with the given number of
// replicas (≤ 0 selects GOMAXPROCS). The seed is absorbed as replica 0 —
// callers must not touch it afterwards — and its current state is cloned
// into every other replica, which is harmless for the merged answer
// (idempotent set union) and preserves the shared hash draws Merge
// requires.
func NewConcurrent(seed Sketch, replicas int) *Concurrent {
	if replicas < 1 {
		replicas = par.Workers(0)
	}
	c := &Concurrent{replicas: make([]replica, replicas)}
	c.replicas[0].sk, c.replicas[0].stale = seed, true
	for i := 1; i < replicas; i++ {
		c.replicas[i].sk, c.replicas[i].stale = seed.Clone(), true
	}
	return c
}

// Replicas returns the replica count.
func (c *Concurrent) Replicas() int { return len(c.replicas) }

// Version returns the number of completed writes (ProcessBatch calls)
// absorbed so far. Estimate's cache is keyed on this counter, so
// two Version calls returning the same value bracket a window in which
// estimates are served from cache; EstimateVersioned reports the cache
// outcome directly.
func (c *Concurrent) Version() uint64 { return c.version.Load() }

// Err returns the front's failure, an error wrapping ErrFailed, or nil
// while it is healthy.
func (c *Concurrent) Err() error {
	if p := c.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records the panic p recovered from a sketch call as the front's
// failure, unless one is recorded already, and returns the failure.
func (c *Concurrent) fail(p any) error {
	err := fmt.Errorf("%w: %v", ErrFailed, p)
	c.failed.CompareAndSwap(nil, &err)
	return c.Err()
}

// acquire claims a replica without ever blocking on a contended lock
// while any replica is free: it rotates TryLock attempts starting from a
// round-robin position and only yields the scheduler after a full idle
// cycle (every replica busy). It returns nil, holding no lock, once the
// front has failed.
func (c *Concurrent) acquire() *replica {
	start := c.rr.Add(1)
	n := uint64(len(c.replicas))
	for c.Err() == nil {
		for k := uint64(0); k < n; k++ {
			r := &c.replicas[(start+k)%n]
			if !r.mu.TryLock() {
				continue
			}
			if c.Err() != nil {
				r.mu.Unlock()
				return nil
			}
			return r
		}
		runtime.Gosched()
	}
	return nil
}

// release publishes a completed write (invalidating the estimate cache)
// and frees the replica.
func (c *Concurrent) release(r *replica) {
	c.version.Add(1)
	r.mu.Unlock()
}

// ProcessBatch absorbs a chunk of elements into whichever replica is
// free; the whole chunk lands on one replica, amortising acquisition. On
// a failed front it absorbs nothing.
func (c *Concurrent) ProcessBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	r := c.acquire()
	if r == nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			c.fail(p)
		}
		c.release(r)
	}()
	r.sk.ProcessBatch(xs)
	if !r.stale {
		if len(r.log)+len(xs) <= cap(r.log) {
			r.log = append(r.log, xs...)
		} else {
			r.log, r.stale = r.log[:0], true
		}
	}
}

// Estimate merges the replicas and returns the combined estimate —
// bit-identical to a single sketch having ingested every element. The
// merged answer is cached and reused until the next completed write.
func (c *Concurrent) Estimate() float64 {
	est, _, _ := c.EstimateVersioned()
	return est
}

// EstimateVersioned is Estimate that also reports the write-version the
// answer covers and whether it came from the cache. A cache hit compares
// the version counter under the cache mutex and takes no replica lock, so
// it never waits for a writer partway through a batch. On a miss the
// version is read with every replica locked: it counts exactly the writes
// the merge saw. A failed front returns zeros.
func (c *Concurrent) EstimateVersioned() (est float64, version uint64, cached bool) {
	c.estMu.Lock()
	defer c.estMu.Unlock()
	if c.Err() != nil {
		return 0, 0, false
	}
	if v := c.version.Load(); c.hasCache && v == c.cachedV {
		return c.cached, v, true
	}
	version, est, err := c.estimateMiss()
	if err != nil {
		return 0, 0, false
	}
	c.cached, c.cachedV, c.hasCache = est, version, true
	return est, version, false
}

// estimateMiss computes an estimate under every replica lock: replica
// 0's own on a one-replica front, else the kept target's once drain has
// brought it up to date. It returns the version read under the locks,
// or the front's failure.
func (c *Concurrent) estimateMiss() (version uint64, est float64, err error) {
	if err := c.lockAll(); err != nil {
		return 0, 0, err
	}
	defer c.unlockAll(&err)
	if len(c.replicas) == 1 {
		return c.version.Load(), c.replicas[0].sk.Estimate(), nil
	}
	c.drain()
	return c.version.Load(), c.acc.Estimate(), nil
}

// MergedClone locks every replica and returns a deep copy of their merged
// state — the snapshot primitive: the returned sketch shares no mutable
// state with the front (only the immutable hash draws), so it can be
// marshaled or inspected while ingestion continues. It always merges a
// fresh clone of replica 0, never the kept target, so a snapshot's slot
// order (and therefore its bytes) depends only on the replicas. A failed
// front returns nil.
func (c *Concurrent) MergedClone() Sketch {
	merged, err := c.mergedClone()
	if err != nil {
		return nil
	}
	return merged
}

func (c *Concurrent) mergedClone() (merged Sketch, err error) {
	if err := c.lockAll(); err != nil {
		return nil, err
	}
	defer c.unlockAll(&err)
	merged = c.replicas[0].sk.Clone()
	for i := 1; i < len(c.replicas); i++ {
		merge(merged, c.replicas[i].sk)
	}
	return merged, nil
}

// drain brings the kept target, cloned from replica 0 on the first call,
// up to date; the caller holds every replica lock. It merges each stale
// replica, replays each non-empty log and then empties it, allocating it
// at replayCap on the first call.
func (c *Concurrent) drain() {
	if c.acc == nil {
		c.acc, c.replicas[0].stale = c.replicas[0].sk.Clone(), false
	}
	for i := range c.replicas {
		r := &c.replicas[i]
		if r.stale {
			merge(c.acc, r.sk)
		} else if len(r.log) > 0 {
			c.acc.ProcessBatch(r.log)
		}
		if r.log == nil {
			r.log = make([]uint64, 0, c.acc.replayCap())
		}
		r.log, r.stale = r.log[:0], false
	}
}

// merge folds replica src into dst. Replicas are clones of one seed, so
// a mismatch means the front's own invariant broke, not a caller error.
func merge(dst, src Sketch) {
	if err := dst.Merge(src); err != nil {
		panic("streaming: concurrent replicas diverged: " + err.Error())
	}
}

// lockAll takes every replica lock, or returns the front's failure
// holding none. A caller that got the locks defers unlockAll with its
// error result.
func (c *Concurrent) lockAll() error {
	for i := range c.replicas {
		c.replicas[i].mu.Lock()
	}
	if err := c.Err(); err != nil {
		c.unlockAll(nil)
		return err
	}
	return nil
}

// unlockAll releases every replica lock. Deferred with a caller's error
// result, it first turns a panic under the locks into the front's
// failure, so a merge or replay that panics leaves no lock held and the
// target it may have half-updated is never read again.
func (c *Concurrent) unlockAll(err *error) {
	if err != nil {
		if p := recover(); p != nil {
			*err = c.fail(p)
		}
	}
	for i := range c.replicas {
		c.replicas[i].mu.Unlock()
	}
}

// SketchWords reports the summed footprint of all replicas and, once an
// estimate has missed on a multi-replica front, of the kept merge target
// and of each replica's log, charged at its full capacity.
func (c *Concurrent) SketchWords() int {
	total := 0
	c.estMu.Lock()
	if c.acc != nil {
		total = c.acc.SketchWords()
	}
	c.estMu.Unlock()
	for i := range c.replicas {
		r := &c.replicas[i]
		r.mu.Lock()
		total += r.sk.SketchWords() + cap(r.log)
		r.mu.Unlock()
	}
	return total
}
